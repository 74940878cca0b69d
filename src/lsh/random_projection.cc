#include "lsh/random_projection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/random.h"
#include "util/stats.h"

namespace lccs {
namespace lsh {
namespace {

// floor(p) as a hash value, defined for every double: the cast of a NaN,
// an infinity or a value outside the int32 range is undefined behaviour, so
// those saturate instead, and NaN goes to INT32_MIN.
HashValue FloorToHash(double p) {
  constexpr HashValue kMin = std::numeric_limits<HashValue>::min();
  constexpr HashValue kMax = std::numeric_limits<HashValue>::max();
  if (!(p >= kMin)) return kMin;  // NaN, -inf, below range
  if (p >= kMax) return kMax;     // floor(p) >= INT32_MAX
  return static_cast<HashValue>(std::floor(p));
}

// The Lv et al. probing sequence around projection `proj` (in units of w):
// bucket floor(proj) ± step, scored by the squared distance to its near
// boundary. A projection whose buckets ± 65 leave the int32 range (NaN and
// infinities included) has no alternatives.
void ProbeAlternatives(double proj, size_t max_alts,
                       std::vector<AltHash>* out) {
  constexpr int kMaxStep = 65;
  constexpr double kLo =
      static_cast<double>(std::numeric_limits<HashValue>::min()) + kMaxStep;
  constexpr double kHi =
      static_cast<double>(std::numeric_limits<HashValue>::max()) - kMaxStep;
  out->clear();
  if (max_alts == 0 || !(proj >= kLo && proj < kHi)) return;
  const auto base = static_cast<HashValue>(std::floor(proj));
  // Distance (in units of w) from the projected point to the near boundary of
  // bucket base+delta; squaring gives the Lv et al. probing score.
  const double frac = proj - std::floor(proj);
  for (int step = 1; out->size() < max_alts; ++step) {
    const double up = (static_cast<double>(step) - frac);    // to base+step
    const double down = (frac + static_cast<double>(step) - 1.0);  // base-step
    if (down <= up) {
      out->push_back({base - step, down * down});
      if (out->size() < max_alts) out->push_back({base + step, up * up});
    } else {
      out->push_back({base + step, up * up});
      if (out->size() < max_alts) out->push_back({base - step, down * down});
    }
    if (step >= kMaxStep) break;  // defensive bound; scores beyond are useless
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const AltHash& x, const AltHash& y) {
                     return x.score < y.score;
                   });
  if (out->size() > max_alts) out->resize(max_alts);
}

}  // namespace

RandomProjectionFamily::RandomProjectionFamily(size_t dim,
                                               size_t num_functions, double w,
                                               uint64_t seed)
    : w_(w) {
  assert(dim > 0 && num_functions > 0 && w > 0.0);
  util::Rng rng(seed);
  a_ = ProjectionMatrix(dim, num_functions, &rng);
  b_.resize(num_functions);
  for (float& b : b_) b = static_cast<float>(rng.Uniform(0.0, w_));
}

void RandomProjectionFamily::Hash(const float* v, HashValue* out) const {
  a_.ForEachBlock(v, [&](size_t first, size_t count, const double* dots) {
    for (size_t j = 0; j < count; ++j) {
      out[first + j] = FloorToHash((dots[j] + b_[first + j]) / w_);
    }
  });
}

void RandomProjectionFamily::HashWithAlternatives(
    const float* v, size_t max_alts, HashValue* out,
    std::vector<std::vector<AltHash>>* alts) const {
  alts->resize(num_functions());
  a_.ForEachBlock(v, [&](size_t first, size_t count, const double* dots) {
    for (size_t j = 0; j < count; ++j) {
      const double proj = (dots[j] + b_[first + j]) / w_;
      out[first + j] = FloorToHash(proj);
      ProbeAlternatives(proj, max_alts, &(*alts)[first + j]);
    }
  });
}

double RandomProjectionFamily::CollisionProbability(double dist) const {
  if (dist <= 0.0) return 1.0;
  const double t = w_ / dist;
  // Eq. (2) of the paper.
  return 1.0 - 2.0 * util::NormalCdf(-t) -
         2.0 / (std::sqrt(2.0 * M_PI) * t) * (1.0 - std::exp(-t * t / 2.0));
}

size_t RandomProjectionFamily::SizeBytes() const {
  return a_.SizeBytes() + b_.size() * sizeof(float);
}

}  // namespace lsh
}  // namespace lccs
