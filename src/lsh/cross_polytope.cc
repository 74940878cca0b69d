#include "lsh/cross_polytope.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/random.h"

namespace lccs {
namespace lsh {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The polytope vertex closest to a rotated vector: +e_i as i, -e_i as
// i + dpad, for the coordinate i of largest magnitude.
HashValue NearestVertex(const float* rotated, size_t dpad) {
  size_t best = 0;
  float best_abs = std::fabs(rotated[0]);
  for (size_t i = 1; i < dpad; ++i) {
    const float a = std::fabs(rotated[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return static_cast<HashValue>(rotated[best] >= 0.0f ? best : best + dpad);
}

// A polytope vertex (index as in NearestVertex) and its signed coordinate
// value.
struct Vertex {
  double value;
  size_t index;
};

// Appends up to `max_alts` (≥ 1) vertices other than the nearest one to
// the empty `out`, in FALCONN's probing order: by value descending, exact
// ties by vertex index ascending. Only the top max_alts + 1 vertices are
// kept, in `top`, scratch the caller reuses across functions.
void VertexAlternatives(const float* rotated, size_t dpad, size_t max_alts,
                        std::vector<Vertex>* top, std::vector<AltHash>* out) {
  // Signed coordinate value of each of the 2*dpad polytope vertices; the
  // primary hash is the maximum. Score of vertex j is the gap to the maximum
  // squared (proportional to the extra squared distance from the normalized
  // rotated query to that vertex, as in FALCONN's probing sequence).
  const size_t keep = max_alts + 1;
  const auto before = [](const Vertex& a, const Vertex& b) {
    return a.value != b.value ? a.value > b.value : a.index < b.index;
  };
  const auto offer = [&](const Vertex& v) {
    if (top->size() == keep) {
      if (!before(v, top->back())) return;
      top->pop_back();
    }
    top->insert(std::upper_bound(top->begin(), top->end(), v, before), v);
  };
  double best = -1.0;
  size_t best_idx = 0;
  top->clear();
  for (size_t i = 0; i < dpad; ++i) {
    const Vertex pos{rotated[i], i};
    const Vertex neg{-rotated[i], i + dpad};
    if (pos.value > best) {
      best = pos.value;
      best_idx = i;
    }
    if (neg.value > best) {
      best = neg.value;
      best_idx = i + dpad;
    }
    offer(pos);
    offer(neg);
  }
  for (const Vertex& v : *top) {
    if (v.index == best_idx) continue;
    const double gap = best - v.value;
    out->push_back({static_cast<HashValue>(v.index), gap * gap});
    if (out->size() >= max_alts) break;
  }
}

}  // namespace

void FastHadamardTransform(float* v, size_t n) {
  assert((n & (n - 1)) == 0);
  for (size_t len = 1; len < n; len <<= 1) {
    for (size_t i = 0; i < n; i += len << 1) {
      for (size_t j = i; j < i + len; ++j) {
        const float x = v[j];
        const float y = v[j + len];
        v[j] = x + y;
        v[j + len] = x - y;
      }
    }
  }
}

CrossPolytopeFamily::CrossPolytopeFamily(size_t dim, size_t num_functions,
                                         uint64_t seed)
    : dim_(dim), dpad_(NextPowerOfTwo(dim)), m_(num_functions) {
  assert(dim > 0 && num_functions > 0);
  util::Rng rng(seed);
  signs_.resize(m_ * 3 * dpad_);
  for (auto& s : signs_) {
    s = (rng.NextU64() & 1) ? 1.0f : -1.0f;
  }
}

void CrossPolytopeFamily::Rotate(size_t func, const float* v,
                                 float* out) const {
  assert(func < m_);
  std::copy(v, v + dim_, out);
  std::fill(out + dim_, out + dpad_, 0.0f);
  const float* base = signs_.data() + func * 3 * dpad_;
  for (int round = 0; round < 3; ++round) {
    const float* diag = base + static_cast<size_t>(round) * dpad_;
    for (size_t i = 0; i < dpad_; ++i) out[i] *= diag[i];
    FastHadamardTransform(out, dpad_);
  }
}

void CrossPolytopeFamily::Hash(const float* v, HashValue* out) const {
  std::vector<float> rotated(dpad_);
  for (size_t f = 0; f < m_; ++f) {
    Rotate(f, v, rotated.data());
    out[f] = NearestVertex(rotated.data(), dpad_);
  }
}

void CrossPolytopeFamily::HashWithAlternatives(
    const float* v, size_t max_alts, HashValue* out,
    std::vector<std::vector<AltHash>>* alts) const {
  alts->resize(m_);
  std::vector<float> rotated(dpad_);
  std::vector<Vertex> top;
  for (size_t f = 0; f < m_; ++f) {
    Rotate(f, v, rotated.data());
    out[f] = NearestVertex(rotated.data(), dpad_);
    (*alts)[f].clear();
    if (max_alts > 0) {
      VertexAlternatives(rotated.data(), dpad_, max_alts, &top, &(*alts)[f]);
    }
  }
}

double CrossPolytopeFamily::CollisionProbability(double dist) const {
  // Eq. (4): ln(1/p(τ)) = τ²/(4-τ²) · ln d + O_τ(ln ln d), with τ the
  // Euclidean distance between unit vectors, 0 < τ < 2. We drop the
  // lower-order term; tests only rely on monotonicity and endpoints.
  if (dist <= 0.0) return 1.0;
  const double tau = std::min(dist, 2.0 - 1e-9);
  const double ln_d = std::log(static_cast<double>(dpad_));
  const double exponent = tau * tau / (4.0 - tau * tau) * ln_d;
  return std::exp(-exponent);
}

size_t CrossPolytopeFamily::SizeBytes() const {
  return signs_.size() * sizeof(float);
}

}  // namespace lsh
}  // namespace lccs
