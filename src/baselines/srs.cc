#include "baselines/srs.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/random.h"
#include "util/simd_distance.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

Srs::Srs(Params params) : params_(params) {
  assert(params_.projected_dim >= 1);
  assert(params_.candidate_fraction > 0.0);
  assert(params_.approx_ratio > 1.0);
}

void Srs::Project(const float* v, float* out) const {
  projection_.MatVec(v, out);
}

void Srs::Build(const dataset::Dataset& data) {
  // Loud even in Release: the χ² early-termination theory and the
  // verification below are Euclidean — another metric would silently rank
  // candidates wrong.
  if (data.metric != util::Metric::kEuclidean) {
    throw std::invalid_argument("SRS supports the Euclidean metric only");
  }
  store_ = data.data.store();
  const size_t dp = params_.projected_dim;
  projection_.Resize(dp, data.dim());
  util::Rng rng(params_.seed);
  rng.FillGaussian(projection_.data(), dp * data.dim());

  const storage::VectorStore& rows = *store_;
  util::Matrix projected(data.n(), dp);
  util::ParallelFor(data.n(), [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      Project(rows.Row(i), projected.Row(i));
    });
  });
  // The projected points are the kd-tree's to keep — moved, not copied.
  tree_.Build(std::move(projected));
}

std::vector<util::Neighbor> Srs::Query(const float* query, size_t k) const {
  assert(store_ != nullptr);
  const size_t d = store_->cols();
  const auto dp = static_cast<int>(params_.projected_dim);
  std::vector<float> pq(params_.projected_dim);
  Project(query, pq.data());

  const size_t budget = std::max(
      k, static_cast<size_t>(params_.candidate_fraction *
                             static_cast<double>(store_->rows())));
  util::TopK topk(k);
  KdTree::IncrementalSearch search(tree_, pq.data());
  int32_t id = -1;
  double proj_dist = 0.0;
  size_t examined = 0;
  while (search.Next(&id, &proj_dist)) {
    // Early termination (test (b) in the header comment): once the k-th best
    // verified distance is b, any point at true distance <= b/c would have
    // projected distance <= δ with probability early_stop_confidence — so if
    // the stream already advanced past δ, stop.
    if (topk.full()) {
      const double b = topk.Threshold();
      const double better = b / params_.approx_ratio;
      if (better > 0.0) {
        const double ratio_sq =
            (proj_dist * proj_dist) / (better * better);
        if (util::ChiSquaredCdf(ratio_sq, dp) >
            params_.early_stop_confidence) {
          break;
        }
      }
    }
    // One candidate at a time through the batched verifier: the early-stop
    // test above consults the heap threshold after every push, so SRS can't
    // defer verification the way the count-based methods do.
    store_->PrefetchRows(&id, 1);
    util::VerifyCandidates(util::Metric::kEuclidean, store_->data(), d, query,
                           &id, 1, topk);
    if (++examined >= budget) break;
  }
  return topk.Sorted();
}

size_t Srs::IndexSizeBytes() const {
  return projection_.SizeBytes() + tree_.SizeBytes();
}

}  // namespace baselines
}  // namespace lccs
