#include "core/mp_lccs_lsh.h"

#include <algorithm>
#include <cassert>

namespace lccs {
namespace core {

MpLccsLsh::MpLccsLsh(std::unique_ptr<lsh::HashFamily> family,
                     util::Metric metric, ProbeParams params)
    : LccsLsh(std::move(family), metric), params_(params) {}

std::unique_ptr<LccsLsh::QueryScratch> MpLccsLsh::MakeScratch() const {
  return std::make_unique<ProbeScratch>();
}

void MpLccsLsh::PrepareSearch(const float* query,
                              QueryScratch* scratch) const {
  const size_t m = family_->num_functions();
  const auto n = static_cast<int32_t>(n_);
  auto* ps = static_cast<ProbeScratch*>(scratch);
  const bool multi = params_.num_probes > 1;
  // One hashing pass. A multi-probe search also takes every position's
  // alternatives from it, so each projection is evaluated once.
  ps->hash.resize(m);
  HashValue* hash = ps->hash.data();
  if (multi) {
    family_->HashWithAlternatives(query, params_.num_alternatives, hash,
                                  &ps->alts);
  } else {
    family_->Hash(query, hash);
  }
  ps->csa.Begin(n_, m, multi ? m * n_ : 0);

  // Base λ-LCCS search (Algorithm 2 lines 2-11): per-shift bounds and the
  // seeded heap. The matched window of shift i is [i, i + reach_i); a later
  // probe only needs to revisit shift i if it modifies a position inside
  // that window.
  csa_.SearchBounds(hash, &ps->csa);
  ps->reach.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const CircularShiftArray::ShiftBounds& b = ps->csa.state[i];
    ps->reach[i] = std::max({b.len_lo, b.len_hi, 1});
  }

  // Perturbed probes (Algorithm 3 ordering) over the alternatives above.
  if (multi) {
    PerturbationGenerator gen(&ps->alts, params_.max_gap);
    PerturbationVector delta;
    // The first vector is the empty perturbation — already searched above.
    gen.Next(&delta);
    ps->affected.resize(m);
    ps->probe.resize(m);
    HashValue* probe = ps->probe.data();
    for (size_t t = 1; t < params_.num_probes && gen.Next(&delta); ++t) {
      std::copy(hash, hash + m, probe);
      for (const Perturbation& p : delta) probe[p.pos] = p.value;
      const auto probe_idx = static_cast<int32_t>(t);

      // Skip unaffected positions: re-search shift i only when a modified
      // position lies in its matched window [i, i + reach_i) (circularly).
      if (params_.skip_unaffected) {
        std::fill(ps->affected.begin(), ps->affected.end(), 0);
        for (const Perturbation& p : delta) {
          for (size_t i = 0; i < m; ++i) {
            const auto offset =
                static_cast<int32_t>((p.pos - static_cast<int32_t>(i) +
                                      static_cast<int32_t>(m)) %
                                     static_cast<int32_t>(m));
            if (offset < ps->reach[i]) ps->affected[i] = 1;
          }
        }
      } else {
        std::fill(ps->affected.begin(), ps->affected.end(), 1);
      }
      for (size_t i = 0; i < m; ++i) {
        if (!ps->affected[i]) continue;
        const auto b = csa_.SearchShift(probe, i, 0, n - 1);
        csa_.PushBounds(b, i, probe_idx, &ps->csa);
      }
    }
  }

  // Candidate extraction (CollectFromHeap, run by the caller) is shared
  // across all probes: it pops in non-increasing LCP order, deduplicating
  // both ids and — because probes overlap heavily in the sorted orders (the
  // redundancy problem of Example 4.1) — frontier positions, which bounds
  // the pop work per shift by n regardless of the number of probes. It
  // reads no probe string: every heap entry carries its exact LCP, and the
  // chains extend it through the CSA's adjacent-LCP arrays.
}

std::vector<LccsCandidate> MpLccsLsh::Candidates(const float* query,
                                                 size_t count) const {
  assert(store_ != nullptr);
  const std::unique_ptr<QueryScratch> scratch = MakeScratch();
  PrepareSearch(query, scratch.get());
  std::vector<LccsCandidate> out;
  out.reserve(std::min<size_t>(count, n_));
  csa_.CollectFromHeap(count, &scratch->csa, &out);
  return out;
}

}  // namespace core
}  // namespace lccs
