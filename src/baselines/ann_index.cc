#include "baselines/ann_index.h"

#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

std::vector<std::vector<util::Neighbor>> AnnIndex::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  const size_t d = dim();
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          results[i] = Query(queries + i * d, k);
        }
      },
      num_threads);
  return results;
}

}  // namespace baselines
}  // namespace lccs
