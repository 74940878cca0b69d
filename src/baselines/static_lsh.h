#ifndef LCCS_BASELINES_STATIC_LSH_H_
#define LCCS_BASELINES_STATIC_LSH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/ann_index.h"
#include "lsh/family_factory.h"

namespace lccs {
namespace baselines {

/// The static concatenating search framework (Section 1, "Prior Work"):
/// K i.i.d. LSH functions are concatenated into a compound hash G per table,
/// L tables are built, and a query inspects the L buckets G_1(q), ...,
/// G_L(q). With num_probes > 1 it additionally probes, per table, the
/// perturbed buckets generated in ascending score order from the family's
/// alternative hash values — the query-directed probing of Multi-Probe LSH
/// (Lv et al.) and FALCONN.
///
/// Three of the paper's baselines are configurations of this one engine:
///   * E2LSH           — random projection family, num_probes = 1
///   * Multi-Probe LSH — random projection family, num_probes > 1
///   * FALCONN         — cross-polytope family, num_probes >= 1
/// plus the angular-adapted E2LSH of Section 6.3 (cross-polytope, 1 probe).
class StaticLsh : public AnnIndex {
 public:
  struct Params {
    size_t k_funcs = 8;           ///< K concatenated functions per table
    size_t num_tables = 16;       ///< L tables
    size_t num_probes = 1;        ///< buckets probed per table
    size_t num_alternatives = 4;  ///< alternatives per position for probing
    double w = 4.0;               ///< bucket width (random projection only)
    uint64_t seed = 1;
  };

  /// `display_name` is what the evaluation harness prints ("E2LSH",
  /// "Multi-Probe LSH", "FALCONN", ...).
  StaticLsh(std::string display_name, lsh::FamilyKind family, Params params);

  /// Retains the dataset's vector store (shared, zero-copy); the Dataset
  /// struct itself is not referenced afterwards.
  void Build(const dataset::Dataset& data) override;
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;
  size_t dim() const override { return store_ ? store_->cols() : 0; }
  size_t IndexSizeBytes() const override;
  std::string name() const override { return display_name_; }

  const Params& params() const { return params_; }

  /// #probes is a query-time knob: sweeping it never rebuilds the tables.
  void set_num_probes(size_t num_probes) {
    params_.num_probes = num_probes > 0 ? num_probes : 1;
  }

  /// Total number of candidate verifications performed by the last Query
  /// call. Under a concurrent QueryBatch the value reflects whichever query
  /// finished last (the store is atomic, so reads are merely racy, not UB).
  size_t last_candidate_count() const {
    return last_candidates_.load(std::memory_order_relaxed);
  }

 private:
  /// Compound key of table `t` given the full hash string of a point.
  uint64_t TableKey(size_t t, const lsh::HashValue* hashes) const;

  std::string display_name_;
  lsh::FamilyKind family_kind_;
  Params params_;
  std::unique_ptr<lsh::HashFamily> family_;  // K*L functions
  std::shared_ptr<const storage::VectorStore> store_;
  util::Metric metric_ = util::Metric::kEuclidean;
  std::vector<std::unordered_map<uint64_t, std::vector<int32_t>>> tables_;
  mutable std::atomic<size_t> last_candidates_{0};
};

}  // namespace baselines
}  // namespace lccs

#endif  // LCCS_BASELINES_STATIC_LSH_H_
