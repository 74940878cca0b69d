#ifndef LCCS_LSH_PROJECTION_H_
#define LCCS_LSH_PROJECTION_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace lsh {

/// The m Gaussian projection vectors a_0, ..., a_{m-1} of a projection
/// family (random projection, sign projection), stored once and transposed
/// in tiles of kBlock functions: tile t holds functions [t·kBlock, t·kBlock
/// + w) as d rows of w floats (w = kBlock, or m mod kBlock for the last
/// tile), row i holding coordinate i of each. There is no padding: the
/// tiles are the same d·m floats as the m × d layout.
///
/// The layout lets one pass over v evaluate a tile of functions at once
/// (SIMD lanes are functions, not coordinates) while reading the tile as
/// one sequential stream, and every function keeps the op sequence of
/// util::Dot(a_f, v, d): one double accumulator starting at 0, i ascending,
/// acc += double(a_f[i]) * double(v[i]). Nothing is reassociated, and a
/// float × float product is exact in double, so a fused multiply-add rounds
/// exactly like the separate multiply and add. Every dot is therefore
/// bit-identical to util::Dot on every SIMD tier.
class ProjectionMatrix {
 public:
  /// Functions per tile, evaluated in one pass over v.
  static constexpr size_t kBlock = 16;

  ProjectionMatrix() = default;

  /// Draws the m vectors from `rng` as m × d row-major Gaussians — a_0[0..d),
  /// then a_1[0..d), ... — so a seed names the same functions whatever the
  /// storage layout.
  ProjectionMatrix(size_t dim, size_t num_functions, util::Rng* rng);

  size_t dim() const { return dim_; }
  size_t num_functions() const { return m_; }
  size_t SizeBytes() const { return at_.size() * sizeof(float); }

  /// Evaluates every dot, one tile per pass over v: calls
  /// fn(first, count, dots) with dots[j] = a_{first+j} · v for j < count,
  /// for first = 0, kBlock, 2·kBlock, ... in order. `tier` pins the
  /// instruction set (tests compare both tiers in one process); kAvx2 on a
  /// CPU without AVX2 and FMA runs the scalar tier.
  template <typename Fn>
  void ForEachBlock(const float* v, Fn&& fn,
                    util::SimdTier tier = util::ActiveSimdTier()) const {
    double dots[kBlock];
    const size_t m = num_functions();
    for (size_t first = 0; first < m; first += kBlock) {
      const size_t count = std::min(kBlock, m - first);
      TileDots(tier, first, count, v, dots);
      fn(first, count, static_cast<const double*>(dots));
    }
  }

 private:
  /// dots[j] = a_{first+j} · v for the tile of `count` functions starting
  /// at function `first`.
  void TileDots(util::SimdTier tier, size_t first, size_t count,
                const float* v, double* dots) const;

  size_t dim_ = 0;
  size_t m_ = 0;
  std::vector<float> at_;  // the tiles in function order, d x w each
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_PROJECTION_H_
