#include "lsh/sign_projection.h"

#include <cassert>
#include <cmath>

#include "util/random.h"

namespace lccs {
namespace lsh {
namespace {

HashValue SignOf(double margin) { return margin >= 0.0 ? 1 : 0; }

// The only alternative is the flipped sign; its score is the squared
// (margin-normalized) distance of the query to the hyperplane.
void FlipAlternative(double margin, size_t max_alts,
                     std::vector<AltHash>* out) {
  out->clear();
  if (max_alts == 0) return;
  out->push_back({SignOf(margin) == 1 ? 0 : 1, margin * margin});
}

}  // namespace

SignProjectionFamily::SignProjectionFamily(size_t dim, size_t num_functions,
                                           uint64_t seed) {
  assert(dim > 0 && num_functions > 0);
  util::Rng rng(seed);
  a_ = ProjectionMatrix(dim, num_functions, &rng);
}

void SignProjectionFamily::Hash(const float* v, HashValue* out) const {
  a_.ForEachBlock(v, [&](size_t first, size_t count, const double* dots) {
    for (size_t j = 0; j < count; ++j) out[first + j] = SignOf(dots[j]);
  });
}

void SignProjectionFamily::HashWithAlternatives(
    const float* v, size_t max_alts, HashValue* out,
    std::vector<std::vector<AltHash>>* alts) const {
  alts->resize(num_functions());
  a_.ForEachBlock(v, [&](size_t first, size_t count, const double* dots) {
    for (size_t j = 0; j < count; ++j) {
      out[first + j] = SignOf(dots[j]);
      FlipAlternative(dots[j], max_alts, &(*alts)[first + j]);
    }
  });
}

double SignProjectionFamily::CollisionProbability(double angle) const {
  if (angle <= 0.0) return 1.0;
  if (angle >= M_PI) return 0.0;
  return 1.0 - angle / M_PI;
}

}  // namespace lsh
}  // namespace lccs
