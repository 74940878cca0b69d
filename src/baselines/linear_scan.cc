#include "baselines/linear_scan.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

void LinearScan::Build(const dataset::Dataset& data) {
  store_ = data.data.store();
  metric_ = data.metric;
}

std::vector<util::Neighbor> LinearScan::Query(const float* query,
                                              size_t k) const {
  return QueryBatch(query, 1, k, /*num_threads=*/1)[0];
}

std::vector<std::vector<util::Neighbor>> LinearScan::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  assert(store_ != nullptr);
  const size_t d = store_->cols();
  const size_t n = store_->rows();
  const util::Metric metric = metric_;
  const float* base = store_->data();
  const storage::VectorStore& rows = *store_;
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  size_t qoff = 0;
  const storage::QuantizedStore* qs =
      storage::ActiveQuantized(store_.get(), metric_, &qoff);
  if (qs != nullptr && k > 0 && n > storage::RerankKeep(k)) {
    // Two-phase scan, one query per ParallelFor item: rank every row on the
    // in-RAM codes, fetch only the k' survivors' exact rows. Turns an O(n)
    // disk sweep into an O(n) in-RAM sweep plus k' row reads for an
    // mmap-backed store. n > k', so PruneAndRerank always answers.
    util::ParallelFor(
        num_queries,
        [&](size_t begin, size_t end) {
          for (size_t q = begin; q < end; ++q) {
            results[q] = *storage::PruneAndRerank(rows, *qs, qoff, metric,
                                                  queries + q * d,
                                                  /*ids=*/nullptr, n, k);
          }
        },
        num_threads);
    return results;
  }
  // Two block sizes. Advisories go out per ~4 MiB of rows (ScanRows'
  // granularity), so a budgeted mmap store bounds its residency mid-scan
  // and a chunk pays one advisory per span however many queries it holds.
  // Inside a span, a ~128 KiB block of rows is verified against every
  // query in the chunk before moving on, so the block stays cache-resident
  // across queries. Contiguous blocks with ascending first_id offer each
  // query its rows in index order, whatever the chunking.
  const size_t row_bytes = std::max<size_t>(1, d * sizeof(float));
  const size_t span = std::max<size_t>(4, (size_t{4} << 20) / row_bytes);
  const size_t block = std::clamp<size_t>(
      size_t{32768} / std::max<size_t>(1, d), 4, 1024);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        std::vector<util::TopK> heaps;
        heaps.reserve(end - begin);
        for (size_t q = begin; q < end; ++q) heaps.emplace_back(k);
        for (size_t first = 0; first < n; first += span) {
          const size_t last = std::min(n, first + span);
          rows.PrefetchRange(first, last - first);
          for (size_t row = first; row < last; row += block) {
            const size_t len = std::min(block, last - row);
            for (size_t q = begin; q < end; ++q) {
              util::VerifyCandidates(metric, base, d, queries + q * d,
                                     /*ids=*/nullptr, len, heaps[q - begin],
                                     static_cast<int32_t>(row));
            }
          }
        }
        for (size_t q = begin; q < end; ++q) {
          results[q] = heaps[q - begin].Sorted();
        }
      },
      num_threads);
  return results;
}

}  // namespace baselines
}  // namespace lccs
