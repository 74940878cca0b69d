#ifndef LCCS_LSH_BIT_SAMPLING_H_
#define LCCS_LSH_BIT_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "lsh/hash_family.h"

namespace lccs {
namespace lsh {

/// The original bit-sampling family of Indyk-Motwani for Hamming distance:
/// h_i(o) = o[idx_i] for a uniformly sampled coordinate idx_i. Input vectors
/// are 0/1-valued floats. Collision probability p(r) = 1 - r/d for Hamming
/// distance r. Evaluating a hash is O(1), the η(d) = O(1) case of Section 5.2
/// (the α = 1/(1-ρ) configuration where LCCS-LSH verifies only O(1)
/// candidates).
class BitSamplingFamily : public HashFamily {
 public:
  BitSamplingFamily(size_t dim, size_t num_functions, uint64_t seed);

  size_t num_functions() const override { return m_; }
  size_t dim() const override { return dim_; }
  void Hash(const float* v, HashValue* out) const override;
  /// The one alternative of each function is its flipped bit, score 1.0.
  void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const override;
  double CollisionProbability(double hamming_dist) const override;
  std::string name() const override { return "bit-sampling"; }
  size_t SizeBytes() const override { return indices_.size() * sizeof(uint32_t); }

  uint32_t sampled_index(size_t func) const { return indices_[func]; }

 private:
  size_t dim_;
  size_t m_;
  std::vector<uint32_t> indices_;
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_BIT_SAMPLING_H_
