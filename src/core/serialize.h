#ifndef LCCS_CORE_SERIALIZE_H_
#define LCCS_CORE_SERIALIZE_H_

#include <memory>
#include <string>

#include "baselines/lccs_adapter.h"
#include "core/dynamic_index.h"
#include "core/lccs_lsh.h"
#include "lsh/family_factory.h"

namespace lccs {
namespace core {

/// Index persistence.
///
/// A saved index is (a) a small descriptor of the hash family — kind, dim,
/// m, bucket width and seed — and (b) the serialized CSA. Because every
/// family in this library is bit-reproducible from its seed, the descriptor
/// regenerates functions identical to the ones the CSA was built with; only
/// the CSA arrays (the expensive part) are stored verbatim. The raw dataset
/// is *not* stored: like the in-memory index, a loaded index references the
/// caller's vectors for candidate verification.
struct IndexDescriptor {
  lsh::FamilyKind family = lsh::FamilyKind::kRandomProjection;
  util::Metric metric = util::Metric::kEuclidean;
  uint64_t dim = 0;
  uint64_t m = 0;
  double w = 4.0;
  uint64_t seed = 0;
  ProbeParams probes;
};

/// Writes descriptor + CSA to `path`. Throws std::runtime_error on IO
/// failure.
void SaveIndex(const std::string& path, const IndexDescriptor& descriptor,
               const CircularShiftArray& csa);

/// Reads just the descriptor of a saved index — metric, dim, family, m —
/// without touching the CSA. Lets a caller prepare its dataset (e.g.
/// normalize for angular metrics) *before* binding vectors to LoadIndex.
IndexDescriptor ReadIndexDescriptor(const std::string& path);

/// Loads an index saved by SaveIndex and binds it to `data` (n row-major
/// d-dimensional vectors — must be the same data the index was built over;
/// n and d are validated against the stored CSA, and so is the descriptor's
/// m). Returns a ready-to-query LCCS-LSH scheme with its probe params
/// restored (num_probes > 1 is MP-LCCS-LSH). Throws std::runtime_error on a
/// malformed file, including a descriptor whose family or metric is out of
/// range, whose num_probes is 0 or whose max_gap is below 1.
std::unique_ptr<LccsLsh> LoadIndex(const std::string& path,
                                   const float* data, size_t n, size_t d);

/// How SaveDynamicIndex stores the epoch snapshot vectors.
enum class SaveMode {
  /// Self-contained: the floats are inlined into the saved file (the only
  /// choice for heap-backed epochs).
  kInlineVectors,
  /// Out-of-line: the file records the epoch's backing flat file by path +
  /// checksum + row offset instead of inlining the floats — a paper-scale
  /// mmap-backed index saves in O(delta) bytes. Requires the epoch store to
  /// be mmap-backed with a *persistent* file (a heap epoch or a
  /// self-deleting spill epoch throws std::invalid_argument); at load the
  /// flat file is re-mapped and must still match the recorded checksum.
  kExternalVectors,
};

/// Dynamic-index persistence: a saved dynamic index is self-contained — the
/// LCCS parameters of its epoch factory, the epoch snapshot vectors (inline
/// or out-of-line per `mode`), global ids and tombstones, the epoch CSA,
/// and the un-consolidated delta buffer (rows + ids + tombstones). Unlike
/// SaveIndex, the raw vectors ARE part of the saved state: after mutations
/// no caller-side dataset matches the index contents, so a mid-epoch index
/// must carry its own (or, in kExternalVectors mode, a validated reference
/// to it). Requires the index's epoch to be a baselines::LccsLshIndex
/// (throws std::invalid_argument otherwise); `params` must be the factory
/// parameters, so a loaded index consolidates into identical epochs. Throws
/// std::runtime_error on IO failure.
void SaveDynamicIndex(const std::string& path,
                      const baselines::LccsLshIndex::Params& params,
                      const DynamicIndex& index,
                      SaveMode mode = SaveMode::kInlineVectors);

/// Restores a SaveDynamicIndex file: ready to query, insert, delete and
/// consolidate, with no external data dependency. `options` seeds the
/// rebuild policy (metric/dim are overwritten from the file). Throws
/// std::runtime_error on malformed, truncated or version-mismatched input,
/// naming what was wrong.
std::unique_ptr<DynamicIndex> LoadDynamicIndex(
    const std::string& path,
    DynamicIndex::Options options = DynamicIndex::Options{});

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_SERIALIZE_H_
