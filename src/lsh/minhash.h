#ifndef LCCS_LSH_MINHASH_H_
#define LCCS_LSH_MINHASH_H_

#include <cstdint>
#include <vector>

#include "lsh/hash_family.h"

namespace lccs {
namespace lsh {

/// MinHash (Broder's min-wise independent permutations) for Jaccard
/// similarity over sets encoded as 0/1 indicator vectors:
///
///   h_i(A) = argmin_{j in A} π_i(j),
///
/// with π_i a random permutation of the universe (implemented as a keyed
/// mixing of the element index — 2-universal hashing, the standard practical
/// substitute). Collision probability equals the Jaccard *similarity*:
/// Pr[h(A) = h(B)] = |A ∩ B| / |A ∪ B| = 1 - dist.
///
/// The paper names Jaccard among the metrics LSH supports (§7); plugging
/// this family into LccsLsh demonstrates the framework's claimed
/// family-independence beyond the two metrics it benchmarks. Empty sets hash
/// to the sentinel value -1 (colliding with other empty sets only).
class MinHashFamily : public HashFamily {
 public:
  MinHashFamily(size_t dim, size_t num_functions, uint64_t seed);

  size_t num_functions() const override { return m_; }
  size_t dim() const override { return dim_; }
  void Hash(const float* v, HashValue* out) const override;
  double CollisionProbability(double jaccard_dist) const override;
  std::string name() const override { return "minhash"; }
  size_t SizeBytes() const override { return keys_.size() * sizeof(uint64_t); }

 private:
  /// Permutation rank of element j under function `func` (keyed mix).
  uint64_t Rank(size_t func, uint32_t element) const;

  size_t dim_;
  size_t m_;
  std::vector<uint64_t> keys_;  // one mixing key per function
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_MINHASH_H_
