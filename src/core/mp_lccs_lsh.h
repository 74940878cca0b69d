#ifndef LCCS_CORE_MP_LCCS_LSH_H_
#define LCCS_CORE_MP_LCCS_LSH_H_

#include <memory>
#include <vector>

#include "core/lccs_lsh.h"
#include "core/perturbation.h"

namespace lccs {
namespace core {

/// Multi-probe LCCS-LSH (MP-LCCS-LSH, Section 4.2).
///
/// Reuses the single-probe index (same CSA, same family) but probes a
/// sequence of perturbed hash strings H^(t)(q), generated in ascending score
/// order by Algorithm 3 from the family's per-position alternative hash
/// values. For each probe we re-run the binary search only on the *affected*
/// shifts — a shift i is affected when one of the probe's modified positions
/// falls inside the window matched by the base search at i, or when the
/// shift starts at a modified position (the "skip unaffected positions"
/// optimization). All probes feed one shared priority queue, so candidates
/// are still surfaced in globally non-increasing LCP-length order and
/// deduplicated across probes.
///
/// With num_probes == 1 the scheme degenerates to single-probe LCCS-LSH
/// (footnote 13 of the paper).
struct ProbeParams {
  size_t num_probes = 1;        ///< probes per query (1 = single-probe)
  int max_gap = 2;              ///< MAX_GAP of Algorithm 3
  size_t num_alternatives = 4;  ///< alternative hash values per position
  /// Ablation switch for the "skip unaffected positions" optimization of
  /// Section 4.2: when false, every probe re-searches all m shifts.
  /// Candidate quality is unchanged; probing cost grows.
  bool skip_unaffected = true;
};

class MpLccsLsh : public LccsLsh {
 public:
  MpLccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric,
            ProbeParams params = ProbeParams{});

  const ProbeParams& probe_params() const { return params_; }
  void set_probe_params(const ProbeParams& params) { params_ = params; }

  /// Raw candidates across the probing sequence (no verification): the
  /// PrepareSearch override below plus a solo heap drain. Query and
  /// QueryBatch are inherited from LccsLsh and dispatch through the same
  /// override, so the multi-probe scheme gets the batched engine
  /// (deduplicated gather) for free.
  std::vector<LccsCandidate> Candidates(const float* query,
                                        size_t count) const;

 protected:
  /// Extends the base scratch with the multi-probe buffers, reused across
  /// the queries served by one scratch. A perturbed probe string is needed
  /// only for its own bound searches (the drain reads none), so one buffer
  /// holds each in turn.
  struct ProbeScratch : QueryScratch {
    std::vector<HashValue> probe;                 ///< current probe string
    std::vector<std::vector<lsh::AltHash>> alts;  ///< per-position alts
    std::vector<int32_t> reach;                   ///< matched window lengths
    std::vector<char> affected;                   ///< shifts to re-search
  };
  std::unique_ptr<QueryScratch> MakeScratch() const override;

  /// The multi-probe search of Section 4.2: one hashing pass that also
  /// yields every position's alternatives, base cascade via
  /// CircularShiftArray::SearchShiftFrom, perturbed probes re-searching only
  /// affected shifts, all feeding one shared heap (drained by the caller
  /// with cross-probe frontier-position dedup).
  void PrepareSearch(const float* query, QueryScratch* scratch) const override;

 private:
  ProbeParams params_;
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_MP_LCCS_LSH_H_
