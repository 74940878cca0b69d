#include "lsh/bit_sampling.h"

#include <cassert>

#include "util/metric.h"
#include "util/random.h"

namespace lccs {
namespace lsh {

BitSamplingFamily::BitSamplingFamily(size_t dim, size_t num_functions,
                                     uint64_t seed)
    : dim_(dim), m_(num_functions) {
  assert(dim > 0 && num_functions > 0);
  util::Rng rng(seed);
  indices_.resize(m_);
  for (auto& idx : indices_) {
    idx = static_cast<uint32_t>(rng.NextBounded(dim_));
  }
}

void BitSamplingFamily::Hash(const float* v, HashValue* out) const {
  for (size_t i = 0; i < m_; ++i) {
    out[i] = util::IsSetCoordinate(v[indices_[i]]) ? 1 : 0;
  }
}

void BitSamplingFamily::HashWithAlternatives(
    const float* v, size_t max_alts, HashValue* out,
    std::vector<std::vector<AltHash>>* alts) const {
  Hash(v, out);
  alts->resize(m_);
  for (size_t i = 0; i < m_; ++i) {
    (*alts)[i].clear();
    // Flipping the sampled bit is the only alternative; all flips are
    // equally likely a priori, so every alternative gets unit score.
    if (max_alts > 0) (*alts)[i].push_back({out[i] == 1 ? 0 : 1, 1.0});
  }
}

double BitSamplingFamily::CollisionProbability(double hamming_dist) const {
  if (hamming_dist <= 0.0) return 1.0;
  const double p = 1.0 - hamming_dist / static_cast<double>(dim_);
  return p < 0.0 ? 0.0 : p;
}

}  // namespace lsh
}  // namespace lccs
