#ifndef LCCS_BASELINES_ANN_INDEX_H_
#define LCCS_BASELINES_ANN_INDEX_H_

#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "util/topk.h"

namespace lccs {
namespace baselines {

/// Uniform interface over every c-k-ANNS method in the repository — the
/// paper's LCCS-LSH / MP-LCCS-LSH and all seven competitors — so the
/// evaluation harness can sweep them interchangeably (Section 6.3).
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// Builds the index. The dataset must outlive the index: methods verify
  /// candidates against the original vectors.
  virtual void Build(const dataset::Dataset& data) = 0;

  /// c-k-ANNS query: returns up to k neighbors sorted by ascending distance.
  virtual std::vector<util::Neighbor> Query(const float* query,
                                            size_t k) const = 0;

  /// Batched c-k-ANNS: answers `num_queries` queries stored row-major and
  /// contiguously (dim() floats each), returning one per-query answer vector
  /// in input order. Results are required to be identical to calling Query
  /// per row. The default implementation fans the rows out over
  /// util::ParallelFor (`num_threads` = 0 means hardware concurrency);
  /// implementations override it when they can amortize work across the
  /// batch. Query must therefore be safe to call concurrently on a built
  /// index — it is const and touches no shared mutable state.
  virtual std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const;

  /// Dimensionality the index was built over (0 before Build). QueryBatch
  /// uses it as the row stride of the packed query block.
  virtual size_t dim() const = 0;

  /// Memory held by the index structures (excluding the raw dataset, which
  /// all methods share).
  virtual size_t IndexSizeBytes() const = 0;

  /// Display name, e.g. "LCCS-LSH" or "C2LSH".
  virtual std::string name() const = 0;
};

}  // namespace baselines
}  // namespace lccs

#endif  // LCCS_BASELINES_ANN_INDEX_H_
