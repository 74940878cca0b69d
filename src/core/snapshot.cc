#include "core/snapshot.h"

#include <algorithm>
#include <iterator>

#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace core {

DeltaBuffer::DeltaBuffer(size_t capacity_, size_t dim_)
    : capacity(capacity_),
      dim(dim_),
      rows(new float[capacity_ * dim_]),
      ids(new int32_t[capacity_]),
      // Value-initialization zeroes the stamps: every slot starts live.
      deleted_at(new std::atomic<uint64_t>[capacity_]()) {}

std::vector<util::Neighbor> Snapshot::FilterEpoch(
    std::vector<util::Neighbor> stat, size_t k) const {
  size_t kept = 0;
  for (const util::Neighbor& nb : stat) {
    const size_t row = static_cast<size_t>(nb.id);
    if (!Visible(epoch_->deleted_at[row])) continue;
    // Row -> global id: a monotone remap (snapshot rows are stored in
    // ascending global-id order), so the (distance, id) order is unchanged.
    stat[kept] = util::Neighbor{epoch_->ids[row], nb.dist};
    if (++kept == k) break;
  }
  stat.resize(kept);
  return stat;
}

std::vector<util::Neighbor> Snapshot::QueryDelta(
    const float* query, size_t k, const std::vector<int32_t>& live) const {
  if (live.empty() || k == 0) return {};
  // Every live slot is verified exactly, in slot (= insert) order. No int8
  // prune: delta rows are heap-resident, so it would save no disk reads,
  // and they may lie outside the epoch codebook's range, which it clamps.
  util::TopK topk(k);
  util::VerifyCandidates(metric_, delta_->rows.get(), dim_, query, live.data(),
                         live.size(), topk);
  std::vector<util::Neighbor> result = topk.Sorted();
  // Slot -> global id, a monotone remap (slots hold ascending global ids).
  for (util::Neighbor& nb : result) nb.id = delta_->ids[nb.id];
  return result;
}

std::vector<util::Neighbor> Snapshot::Query(const float* query,
                                            size_t k) const {
  return QueryBatch(query, 1, k, /*num_threads=*/1)[0];
}

std::vector<std::vector<util::Neighbor>> Snapshot::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  if (k == 0 || num_queries == 0) return results;
  // The static epoch answers the whole batch through its own QueryBatch
  // (cache-blocked / parallel); filtering and the delta scan run per query
  // in parallel. The epoch over-fetches by the number of its rows stamped
  // at acquisition: the wrapped index sees no deletes, so at most
  // epoch_overfetch_ of its answers can be stamped away — k survivors
  // always remain when they exist.
  std::vector<std::vector<util::Neighbor>> stat(num_queries);
  if (epoch_ != nullptr && epoch_->index != nullptr) {
    stat = epoch_->index->QueryBatch(queries, num_queries,
                                     k + epoch_overfetch_, num_threads);
  }
  // Hoist the live-delta-slot gather out of the per-query loop: the stamps
  // visible at a pinned version are immutable, so one scan serves the whole
  // window instead of num_queries scans over delta_len_ atomics.
  std::vector<int32_t> live;
  if (delta_len_ > 0) {
    live.reserve(delta_len_);
    for (size_t s = 0; s < delta_len_; ++s) {
      if (Visible(delta_->deleted_at[s])) {
        live.push_back(static_cast<int32_t>(s));
      }
    }
  }
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        for (size_t q = begin; q < end; ++q) {
          std::vector<util::Neighbor> part = FilterEpoch(std::move(stat[q]), k);
          std::vector<util::Neighbor> delta =
              QueryDelta(queries + q * dim_, k, live);
          auto& merged = results[q];
          merged.reserve(std::min(k, part.size() + delta.size()));
          std::merge(part.begin(), part.end(), delta.begin(), delta.end(),
                     std::back_inserter(merged));
          if (merged.size() > k) merged.resize(k);
        }
      },
      num_threads);
  return results;
}

}  // namespace core
}  // namespace lccs
