#ifndef LCCS_LSH_CROSS_POLYTOPE_H_
#define LCCS_LSH_CROSS_POLYTOPE_H_

#include <cstdint>
#include <vector>

#include "lsh/hash_family.h"

namespace lccs {
namespace lsh {

/// The cross-polytope family of Andoni et al. / Terasawa-Tanaka (Eq. (3) of
/// the paper), designed for Angular distance (Euclidean distance on the unit
/// sphere):
///
///   h_A(o) = argmin_j | u_j - A·o / ||A·o|| |,   u_j ∈ {±e_i},
///
/// i.e. the closest signed standard basis vector after a random rotation.
/// Hash values lie in [0, 2·d_pad): value i encodes +e_i, value i + d_pad
/// encodes -e_i.
///
/// Like FALCONN, we replace the dense Gaussian rotation with the
/// pseudo-random rotation A = H·D3·H·D2·H·D1 (three random-sign diagonal
/// matrices interleaved with fast Hadamard transforms). This keeps evaluation
/// at O(d log d) and storage at O(d) per function while preserving the
/// collision probability (Eq. (4)).
///
/// Multi-probe alternatives are the other polytope vertices ranked by their
/// squared Euclidean distance to the rotated query, as in FALCONN.
class CrossPolytopeFamily : public HashFamily {
 public:
  CrossPolytopeFamily(size_t dim, size_t num_functions, uint64_t seed);

  size_t num_functions() const override { return m_; }
  size_t dim() const override { return dim_; }
  void Hash(const float* v, HashValue* out) const override;
  /// Rotates the query once per function for both the hash and the
  /// alternatives.
  void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const override;
  double CollisionProbability(double dist) const override;
  std::string name() const override { return "cross-polytope"; }
  size_t SizeBytes() const override;

  /// Dimension after zero-padding to a power of two.
  size_t padded_dim() const { return dpad_; }

  /// Number of distinct hash values (2 * padded_dim()).
  size_t num_buckets() const { return 2 * dpad_; }

  /// Applies the pseudo-random rotation of function `func` to `v`, writing
  /// the rotated vector into out[0..padded_dim()). Exposed for tests.
  void Rotate(size_t func, const float* v, float* out) const;

 private:
  size_t dim_;
  size_t dpad_;  // dim_ rounded up to a power of two
  size_t m_;
  // Three ±1 diagonals per function, each of length dpad_, stored
  // contiguously: signs_[func * 3 * dpad_ + round * dpad_ + i].
  std::vector<float> signs_;
};

/// In-place fast Walsh-Hadamard transform; n must be a power of two.
/// The transform is unnormalized (orthogonal up to a factor sqrt(n)), which
/// does not affect argmax-based hashing.
void FastHadamardTransform(float* v, size_t n);

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_CROSS_POLYTOPE_H_
