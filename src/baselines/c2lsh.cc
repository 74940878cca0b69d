#include "baselines/c2lsh.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

namespace {

// Floor division that is correct for negative bucket ids.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

C2Lsh::C2Lsh(Params params) : params_(params) {
  assert(params_.num_functions >= 1);
  assert(params_.alpha > 0.0 && params_.alpha <= 1.0);
  assert(params_.approx_ratio > 1.0);
  // The epsilon guards against ceil(0.55 * 100) = 56 from floating-point
  // representation of alpha.
  threshold_ = static_cast<size_t>(std::ceil(
      params_.alpha * static_cast<double>(params_.num_functions) - 1e-9));
  threshold_ = std::max<size_t>(1, threshold_);
}

void C2Lsh::Build(const dataset::Dataset& data) {
  store_ = data.data.store();
  metric_ = data.metric;
  const size_t m = params_.num_functions;
  family_ = lsh::MakeFamily(lsh::DefaultFamilyFor(data.metric), data.dim(), m,
                            params_.w, params_.seed);
  const storage::VectorStore& rows = *store_;
  std::vector<lsh::HashValue> hashes(data.n() * m);
  util::ParallelFor(data.n(), [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      family_->Hash(rows.Row(i), hashes.data() + i * m);
    });
  });
  entries_.assign(m, {});
  for (size_t f = 0; f < m; ++f) {
    auto& column = entries_[f];
    column.resize(data.n());
    for (size_t i = 0; i < data.n(); ++i) {
      column[i] = {hashes[i * m + f], static_cast<int32_t>(i)};
    }
    std::sort(column.begin(), column.end());
  }
}

std::vector<util::Neighbor> C2Lsh::Query(const float* query, size_t k) const {
  assert(store_ != nullptr);
  const size_t m = params_.num_functions;
  const size_t n = store_->rows();
  const size_t d = store_->cols();
  const bool euclidean = metric_ == util::Metric::kEuclidean;
  std::vector<lsh::HashValue> hq(m);
  // Categorical buckets widen through the family's alternatives, taken
  // from the hashing pass.
  std::vector<std::vector<lsh::AltHash>> alts;
  if (euclidean) {
    family_->Hash(query, hq.data());
  } else {
    family_->HashWithAlternatives(query, params_.max_rounds, hq.data(), &alts);
  }

  std::vector<int32_t> counts(n, 0);
  size_t verified = 0;
  const size_t budget = k + params_.extra_candidates;

  // Points that cross the collision threshold are queued (in crossing
  // order) and verified in one batched pass after the rounds finish; the
  // round logic only ever consults the `verified` count, never a distance.
  std::vector<int32_t> pending;
  auto bump = [&](int32_t id) {
    if (static_cast<size_t>(++counts[id]) == threshold_) {
      pending.push_back(id);
      ++verified;
    }
  };

  if (euclidean) {
    // Covered index ranges per function, extended monotonically as virtual
    // rehashing coarsens the bucket granularity.
    std::vector<size_t> lo_idx(m), hi_idx(m);
    std::vector<char> started(m, 0);
    for (size_t round = 0; round <= params_.max_rounds; ++round) {
      const double scale = std::pow(params_.approx_ratio,
                                    static_cast<double>(round));
      const auto s = static_cast<int64_t>(std::max(1.0, std::round(scale)));
      bool all_covered = true;
      for (size_t f = 0; f < m; ++f) {
        const auto& column = entries_[f];
        const int64_t fb = FloorDiv(hq[f], s);
        const auto wlo = static_cast<lsh::HashValue>(fb * s);
        const auto whi = static_cast<lsh::HashValue>(fb * s + s - 1);
        auto lower = std::lower_bound(
            column.begin(), column.end(), wlo,
            [](const Entry& e, lsh::HashValue v) { return e.bucket < v; });
        auto upper = std::upper_bound(
            column.begin(), column.end(), whi,
            [](lsh::HashValue v, const Entry& e) { return v < e.bucket; });
        const auto new_lo = static_cast<size_t>(lower - column.begin());
        const auto new_hi = static_cast<size_t>(upper - column.begin());
        if (!started[f]) {
          started[f] = 1;
          lo_idx[f] = new_lo;
          hi_idx[f] = new_hi;
          for (size_t i = new_lo; i < new_hi; ++i) bump(column[i].id);
        } else {
          for (size_t i = new_lo; i < lo_idx[f]; ++i) bump(column[i].id);
          for (size_t i = hi_idx[f]; i < new_hi; ++i) bump(column[i].id);
          lo_idx[f] = std::min(lo_idx[f], new_lo);
          hi_idx[f] = std::max(hi_idx[f], new_hi);
        }
        if (lo_idx[f] > 0 || hi_idx[f] < column.size()) all_covered = false;
      }
      if (verified >= budget || all_covered) break;
    }
  } else {
    // Categorical buckets (cross-polytope / bit sampling): "widening" admits
    // one more of the query's ranked alternative buckets per round.
    auto count_bucket = [&](size_t f, lsh::HashValue bucket) {
      const auto& column = entries_[f];
      auto lower = std::lower_bound(
          column.begin(), column.end(), bucket,
          [](const Entry& e, lsh::HashValue v) { return e.bucket < v; });
      for (; lower != column.end() && lower->bucket == bucket; ++lower) {
        bump(lower->id);
      }
    };
    for (size_t round = 0; round <= params_.max_rounds; ++round) {
      bool any_new = false;
      for (size_t f = 0; f < m; ++f) {
        if (round == 0) {
          count_bucket(f, hq[f]);
          any_new = true;
        } else if (round - 1 < alts[f].size()) {
          count_bucket(f, alts[f][round - 1].value);
          any_new = true;
        }
      }
      if (verified >= budget || !any_new) break;
    }
  }

  // Categorical families can exhaust their alternatives with fewer than k
  // points past the threshold. Fall back to the highest-collision-count
  // points so a query always returns k answers (a point's count is exactly
  // the dynamic framework's proximity indicator).
  if (verified < k) {
    std::vector<int32_t> by_count(n);
    for (size_t i = 0; i < n; ++i) by_count[i] = static_cast<int32_t>(i);
    const size_t take = std::min(n, k + params_.extra_candidates);
    std::partial_sort(by_count.begin(), by_count.begin() + take,
                      by_count.end(), [&counts](int32_t a, int32_t b) {
                        if (counts[a] != counts[b]) {
                          return counts[a] > counts[b];
                        }
                        return a < b;
                      });
    for (size_t i = 0; i < take; ++i) {
      const int32_t id = by_count[i];
      if (static_cast<size_t>(counts[id]) >= threshold_) continue;  // done
      pending.push_back(id);
    }
  }
  store_->PrefetchRows(pending.data(), pending.size());
  util::TopK topk(k);
  util::VerifyCandidates(metric_, store_->data(), d, query, pending.data(),
                         pending.size(), topk);
  return topk.Sorted();
}

size_t C2Lsh::IndexSizeBytes() const {
  size_t bytes = family_ ? family_->SizeBytes() : 0;
  for (const auto& column : entries_) bytes += column.size() * sizeof(Entry);
  return bytes;
}

}  // namespace baselines
}  // namespace lccs
