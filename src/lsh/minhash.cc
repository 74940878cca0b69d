#include "lsh/minhash.h"

#include <cassert>
#include <limits>

#include "util/metric.h"
#include "util/random.h"

namespace lccs {
namespace lsh {

MinHashFamily::MinHashFamily(size_t dim, size_t num_functions, uint64_t seed)
    : dim_(dim), m_(num_functions) {
  assert(dim > 0 && num_functions > 0);
  util::Rng rng(seed);
  keys_.resize(m_);
  for (auto& key : keys_) key = rng.NextU64();
}

uint64_t MinHashFamily::Rank(size_t func, uint32_t element) const {
  // splitmix64-style finalizer keyed by the function: a fast 2-universal
  // stand-in for a random permutation of the universe.
  uint64_t z = keys_[func] ^ (static_cast<uint64_t>(element) +
                              0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void MinHashFamily::Hash(const float* v, HashValue* out) const {
  // One pass over the set bits updating all m minima beats m passes over
  // the (usually sparse) indicator vector.
  std::vector<uint64_t> best_rank(m_, std::numeric_limits<uint64_t>::max());
  for (size_t f = 0; f < m_; ++f) out[f] = -1;
  for (size_t j = 0; j < dim_; ++j) {
    if (!util::IsSetCoordinate(v[j])) continue;
    for (size_t f = 0; f < m_; ++f) {
      const uint64_t rank = Rank(f, static_cast<uint32_t>(j));
      if (rank < best_rank[f]) {
        best_rank[f] = rank;
        out[f] = static_cast<HashValue>(j);
      }
    }
  }
}

double MinHashFamily::CollisionProbability(double jaccard_dist) const {
  if (jaccard_dist <= 0.0) return 1.0;
  if (jaccard_dist >= 1.0) return 0.0;
  return 1.0 - jaccard_dist;  // Pr[h(A)=h(B)] = Jaccard similarity
}

}  // namespace lsh
}  // namespace lccs
