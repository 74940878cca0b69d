#ifndef LCCS_LSH_RANDOM_PROJECTION_H_
#define LCCS_LSH_RANDOM_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "lsh/hash_family.h"
#include "lsh/projection.h"

namespace lccs {
namespace lsh {

/// The p-stable random projection family of Datar et al. (Eq. (1) of the
/// paper), designed for Euclidean distance:
///
///   h_{a,b}(o) = floor((a · o + b) / w)
///
/// with a ~ N(0, I_d) and b ~ U[0, w). Its collision probability for two
/// points at Euclidean distance τ is Eq. (2):
///
///   p(τ) = 1 - 2Φ(-w/τ) - 2/(sqrt(2π) (w/τ)) (1 - e^{-(w/τ)²/2}).
///
/// Multi-probe alternatives follow Lv et al. (Multi-Probe LSH): bucket h±δ is
/// scored by the squared distance from the projected query to that bucket's
/// nearest boundary, normalized by w.
///
/// Hash values are defined for every input: a projection beyond the int32
/// range saturates to INT32_MIN / INT32_MAX, and a NaN projection (a NaN
/// coordinate, or +inf meeting -inf in the dot) hashes to INT32_MIN.
class RandomProjectionFamily : public HashFamily {
 public:
  /// Creates m functions for d-dimensional data with bucket width w.
  RandomProjectionFamily(size_t dim, size_t num_functions, double w,
                         uint64_t seed);

  size_t num_functions() const override { return a_.num_functions(); }
  size_t dim() const override { return a_.dim(); }
  void Hash(const float* v, HashValue* out) const override;
  void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const override;
  double CollisionProbability(double dist) const override;
  std::string name() const override { return "random-projection"; }
  size_t SizeBytes() const override;

  double bucket_width() const { return w_; }

 private:
  double w_;
  ProjectionMatrix a_;    // m projection vectors, stored d x m
  std::vector<float> b_;  // m offsets in [0, w)
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_RANDOM_PROJECTION_H_
