#ifndef LCCS_BASELINES_LCCS_ADAPTER_H_
#define LCCS_BASELINES_LCCS_ADAPTER_H_

#include <memory>
#include <optional>

#include "baselines/ann_index.h"
#include "core/lccs_lsh.h"
#include "lsh/family_factory.h"

namespace lccs {
namespace baselines {

/// AnnIndex adapter over the paper's contribution so the evaluation harness
/// can sweep LCCS-LSH / MP-LCCS-LSH next to the baselines. With
/// num_probes == 1 this *is* single-probe LCCS-LSH (Section 4.1); with more
/// probes it is MP-LCCS-LSH (Section 4.2).
class LccsLshIndex : public AnnIndex {
 public:
  struct Params {
    size_t m = 64;          ///< hash string length (the one tuning knob)
    size_t lambda = 100;    ///< candidates verified per query
    size_t num_probes = 1;  ///< 1 = LCCS-LSH, >1 = MP-LCCS-LSH
    int max_gap = 2;
    size_t num_alternatives = 4;
    double w = 4.0;  ///< bucket width when the family is random projection
    /// Family override; defaults to the metric's standard family.
    std::optional<lsh::FamilyKind> family;
    uint64_t seed = 7;
  };

  explicit LccsLshIndex(Params params);

  void Build(const dataset::Dataset& data) override;
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;
  /// Routes to the scheme's cross-query batch engine (hashing and search on
  /// reusable per-thread scratch, one deduplicated gather over the union of
  /// candidate rows) instead of the default per-row fan-out. Results are
  /// bit-identical to calling Query per row.
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override;
  size_t dim() const override { return scheme_ ? scheme_->dim() : 0; }
  size_t IndexSizeBytes() const override;
  std::string name() const override {
    return params_.num_probes > 1 ? "MP-LCCS-LSH" : "LCCS-LSH";
  }

  const Params& params() const { return params_; }

  /// λ can be swept at query time without rebuilding (it only affects how
  /// many candidates are verified).
  void set_lambda(size_t lambda) { params_.lambda = lambda; }
  /// Likewise the probe count (the CSA is probe-agnostic).
  void set_num_probes(size_t num_probes);

  /// Forwards core::LccsLsh::ReleaseNextLinks — drops a third of the CSA's
  /// memory for memory-tight serving (bench/disk_store quantized mode);
  /// queries stay exact, and the next Build restores the links.
  void ReleaseNextLinks() {
    if (scheme_) scheme_->ReleaseNextLinks();
  }

  /// Access to the wrapped scheme (tests and diagnostics).
  const core::LccsLsh& scheme() const { return *scheme_; }

 private:
  /// Family + probe-parameter construction of Build.
  std::unique_ptr<core::LccsLsh> MakeScheme(
      const dataset::Dataset& data) const;

  Params params_;
  std::unique_ptr<core::LccsLsh> scheme_;
};

}  // namespace baselines
}  // namespace lccs

#endif  // LCCS_BASELINES_LCCS_ADAPTER_H_
