#ifndef LCCS_CORE_SERIALIZE_H_
#define LCCS_CORE_SERIALIZE_H_

#include <memory>
#include <string>

#include "core/lccs_lsh.h"
#include "lsh/family_factory.h"

namespace lccs {
namespace core {

/// Static-index persistence (a mutable index — core::DynamicIndex behind
/// serve::ShardedIndex — persists through the WAL checkpoint, serve/wal.h).
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

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_SERIALIZE_H_
