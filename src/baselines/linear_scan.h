#ifndef LCCS_BASELINES_LINEAR_SCAN_H_
#define LCCS_BASELINES_LINEAR_SCAN_H_

#include "baselines/ann_index.h"

namespace lccs {
namespace baselines {

/// Exact brute-force scan. The accuracy ceiling for every experiment and the
/// query-time floor LSH methods must beat; also the α = 0 row of Table 1
/// (LCCS-LSH with O(1) hash functions degenerates to linear-scan cost).
class LinearScan : public AnnIndex {
 public:
  /// Retains the dataset's vector store (shared, zero-copy — possibly a
  /// memory-mapped flat file); the Dataset struct itself is not referenced
  /// afterwards.
  void Build(const dataset::Dataset& data) override;
  /// A one-row QueryBatch on the calling thread.
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;
  /// Cache-blocked scan: each worker sweeps the base vectors once for its
  /// whole chunk of queries (base row outer, query inner), so every loaded
  /// row is reused across the chunk instead of being re-streamed per query.
  /// With a quantized tier attached, each query instead sweeps the int8
  /// codes and reranks its k' survivors (storage::PruneAndRerank).
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override;
  size_t dim() const override { return store_ ? store_->cols() : 0; }
  size_t IndexSizeBytes() const override { return 0; }
  std::string name() const override { return "LinearScan"; }

 private:
  std::shared_ptr<const storage::VectorStore> store_;
  util::Metric metric_ = util::Metric::kEuclidean;
};

}  // namespace baselines
}  // namespace lccs

#endif  // LCCS_BASELINES_LINEAR_SCAN_H_
