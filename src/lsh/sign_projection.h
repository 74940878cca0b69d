#ifndef LCCS_LSH_SIGN_PROJECTION_H_
#define LCCS_LSH_SIGN_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "lsh/hash_family.h"
#include "lsh/projection.h"

namespace lccs {
namespace lsh {

/// The hyperplane (SimHash) family of Charikar for Angular distance:
///
///   h_a(o) = sign(a · o) ∈ {0, 1},   a ~ N(0, I_d).
///
/// Collision probability p(θ) = 1 - θ/π for angular distance θ. The paper
/// cites it as the family that cross-polytope supersedes; we include it both
/// as an extension point (LCCS-LSH is family-independent) and as a simple,
/// analytically tractable family for property tests.
class SignProjectionFamily : public HashFamily {
 public:
  SignProjectionFamily(size_t dim, size_t num_functions, uint64_t seed);

  size_t num_functions() const override { return a_.num_functions(); }
  size_t dim() const override { return a_.dim(); }
  void Hash(const float* v, HashValue* out) const override;
  void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const override;
  double CollisionProbability(double angle) const override;
  std::string name() const override { return "sign-projection"; }
  size_t SizeBytes() const override { return a_.SizeBytes(); }

 private:
  ProjectionMatrix a_;  // m hyperplane normals, stored d x m
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_SIGN_PROJECTION_H_
