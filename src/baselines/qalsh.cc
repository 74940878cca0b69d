#include "baselines/qalsh.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/random.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

QaLsh::QaLsh(Params params) : params_(params) {
  assert(params_.num_functions >= 1);
  assert(params_.alpha > 0.0 && params_.alpha <= 1.0);
  assert(params_.approx_ratio > 1.0);
  threshold_ = static_cast<size_t>(
      std::ceil(params_.alpha * static_cast<double>(params_.num_functions)));
  threshold_ = std::max<size_t>(1, threshold_);
}

void QaLsh::Build(const dataset::Dataset& data) {
  // Loud even in Release: QALSH's hash needs a linear order on
  // projections, and Query verifies with Euclidean distance — building
  // over another metric would silently rank candidates wrong.
  if (data.metric != util::Metric::kEuclidean) {
    throw std::invalid_argument("QALSH supports the Euclidean metric only");
  }
  store_ = data.data.store();
  const size_t m = params_.num_functions;
  const size_t d = data.dim();
  projections_.Resize(m, d);
  util::Rng rng(params_.seed);
  rng.FillGaussian(projections_.data(), m * d);

  columns_.assign(m, {});
  const storage::VectorStore& rows = *store_;
  std::vector<float> projected(data.n() * m);
  util::ParallelFor(data.n(), [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      for (size_t f = 0; f < m; ++f) {
        projected[i * m + f] = static_cast<float>(
            util::Dot(projections_.Row(f), rows.Row(i), d));
      }
    });
  });
  for (size_t f = 0; f < m; ++f) {
    auto& column = columns_[f];
    column.resize(data.n());
    for (size_t i = 0; i < data.n(); ++i) {
      column[i] = {projected[i * m + f], static_cast<int32_t>(i)};
    }
    std::sort(column.begin(), column.end());
  }
}

std::vector<util::Neighbor> QaLsh::Query(const float* query, size_t k) const {
  assert(store_ != nullptr);
  const size_t m = params_.num_functions;
  const size_t n = store_->rows();
  const size_t d = store_->cols();

  std::vector<double> pq(m);
  for (size_t f = 0; f < m; ++f) {
    pq[f] = util::Dot(projections_.Row(f), query, d);
  }

  std::vector<int32_t> counts(n, 0);
  size_t verified = 0;
  const size_t budget = k + params_.extra_candidates;

  // Threshold-crossing points are queued in crossing order and verified in
  // one batched pass after the widening rounds; the rounds themselves only
  // consult the `verified` count.
  std::vector<int32_t> pending;
  auto bump = [&](int32_t id) {
    if (static_cast<size_t>(++counts[id]) == threshold_) {
      pending.push_back(id);
      ++verified;
    }
  };

  // Two-pointer frontier per function: [left, right) is the covered range.
  std::vector<size_t> left(m), right(m);
  for (size_t f = 0; f < m; ++f) {
    const auto& column = columns_[f];
    // Start both pointers at the query's position in the sorted projections.
    const auto it = std::lower_bound(
        column.begin(), column.end(), pq[f],
        [](const Entry& e, double v) { return e.projection < v; });
    left[f] = right[f] = static_cast<size_t>(it - column.begin());
  }

  for (size_t round = 0; round <= params_.max_rounds; ++round) {
    const double half_width =
        0.5 * params_.w *
        std::pow(params_.approx_ratio, static_cast<double>(round));
    bool all_covered = true;
    for (size_t f = 0; f < m; ++f) {
      const auto& column = columns_[f];
      const double lo_val = pq[f] - half_width;
      const double hi_val = pq[f] + half_width;
      while (left[f] > 0 && column[left[f] - 1].projection >= lo_val) {
        bump(column[--left[f]].id);
      }
      while (right[f] < column.size() &&
             column[right[f]].projection <= hi_val) {
        bump(column[right[f]++].id);
      }
      if (left[f] > 0 || right[f] < column.size()) all_covered = false;
    }
    if (verified >= budget || all_covered) break;
  }
  store_->PrefetchRows(pending.data(), pending.size());
  util::TopK topk(k);
  util::VerifyCandidates(util::Metric::kEuclidean, store_->data(), d, query,
                         pending.data(), pending.size(), topk);
  return topk.Sorted();
}

size_t QaLsh::IndexSizeBytes() const {
  size_t bytes = projections_.SizeBytes();
  for (const auto& column : columns_) bytes += column.size() * sizeof(Entry);
  return bytes;
}

}  // namespace baselines
}  // namespace lccs
