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
/// A saved index is its hash-family descriptor — kind, metric, dim, m,
/// bucket width, seed and probe parameters — plus its row count n: 81
/// bytes, whatever n is. Every family in this library is bit-reproducible
/// from its seed, and the CSA is a deterministic function of the hash
/// strings (Algorithm 1), so the descriptor and the caller's vectors
/// determine the whole index. Loading rebuilds it: LoadIndex hashes the
/// vectors and runs the ordinary LccsLsh::Build, and a loaded index is
/// built by the same code as every other one. The raw dataset is *not*
/// stored: like the in-memory index, a loaded index references the
/// caller's vectors.
struct IndexDescriptor {
  lsh::FamilyKind family = lsh::FamilyKind::kRandomProjection;
  util::Metric metric = util::Metric::kEuclidean;
  uint64_t dim = 0;
  uint64_t m = 0;
  double w = 4.0;
  uint64_t seed = 0;
  ProbeParams probes;
};

/// Writes the descriptor of an index over `n` rows to `path`. Throws
/// std::runtime_error on IO failure.
void SaveIndex(const std::string& path, const IndexDescriptor& descriptor,
               size_t n);

/// Reads just the descriptor of a saved index — metric, dim, family, m —
/// without binding any vectors. Lets a caller prepare its dataset (e.g.
/// normalize for angular metrics) *before* binding vectors to LoadIndex.
/// Throws std::runtime_error on a file LoadIndex would refuse for its own
/// content (see LoadIndex).
IndexDescriptor ReadIndexDescriptor(const std::string& path);

/// Rebuilds the index saved by SaveIndex over `data` (n row-major
/// d-dimensional vectors — the data the index was built over; n and d are
/// checked against the file) and returns a ready-to-query LCCS-LSH scheme
/// with its probe params restored (num_probes > 1 is MP-LCCS-LSH). The
/// caller keeps `data` alive, as for LccsLsh::Build(data, n, d). Before any
/// hashing it throws std::runtime_error on a file that is short, longer
/// than a descriptor, of another version (LCCSIDX1 stored the CSA), or
/// whose n is 0, above INT32_MAX or not the supplied n; whose dim is 0 or
/// not the supplied d; whose m is 0 or above 4095 (the CSA's heap-key cap);
/// whose w is not finite and positive; whose family or metric is out of
/// range; whose num_probes is 0; or whose max_gap is below 1.
std::unique_ptr<LccsLsh> LoadIndex(const std::string& path,
                                   const float* data, size_t n, size_t d);

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_SERIALIZE_H_
