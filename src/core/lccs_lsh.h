#ifndef LCCS_CORE_LCCS_LSH_H_
#define LCCS_CORE_LCCS_LSH_H_

#include <memory>
#include <vector>

#include "core/csa.h"
#include "lsh/hash_family.h"
#include "storage/vector_store.h"
#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace core {

/// Probe parameters of the multi-probe search (MP-LCCS-LSH, Section 4.2).
/// With num_probes == 1 the search is single-probe LCCS-LSH (footnote 13 of
/// the paper) and the other fields are not read.
struct ProbeParams {
  size_t num_probes = 1;        ///< probes per query (1 = single-probe)
  int max_gap = 2;              ///< MAX_GAP of Algorithm 3
  size_t num_alternatives = 4;  ///< alternative hash values per position
  /// Ablation switch for the "skip unaffected positions" optimization of
  /// Section 4.2: when false, every probe re-searches all m shifts.
  /// Candidate quality is unchanged; probing cost grows.
  bool skip_unaffected = true;
};

/// LCCS-LSH (Section 4.1) and its multi-probe form MP-LCCS-LSH (Section
/// 4.2): one class, since the multi-probe search at one probe is exactly
/// the single-probe one.
///
/// Indexing phase: draw m i.i.d. LSH functions from the injected family,
/// convert every data object o into the hash string
/// H(o) = [h_1(o), ..., h_m(o)], and build a Circular Shift Array over the n
/// hash strings.
///
/// Query phase: compute H(q), run a (λ + k - 1)-LCCS search on the CSA, and
/// verify the returned candidates with the true distance metric, keeping the
/// best k. With num_probes > 1 the search also probes a sequence of
/// perturbed hash strings H^(t)(q), generated in ascending score order by
/// Algorithm 3 from the family's per-position alternative hash values. Each
/// probe re-runs the binary search only on the *affected* shifts — a shift
/// i is affected when one of the probe's modified positions falls inside
/// the window matched by the base search at i (the "skip unaffected
/// positions" optimization). All probes feed one shared priority queue, so
/// candidates are still surfaced in globally non-increasing LCP-length
/// order and deduplicated across probes.
///
/// The scheme is LSH-family-independent: any HashFamily works, which is how
/// the same class serves Euclidean (random projection), Angular
/// (cross-polytope / hyperplane) and Hamming (bit sampling) queries.
class LccsLsh {
 public:
  /// Takes ownership of the hash family (which fixes m = family->
  /// num_functions()); `metric` is used only for candidate verification.
  LccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric,
          ProbeParams params = ProbeParams{});

  /// Builds the index over a shared vector store (heap, borrowed, or
  /// memory-mapped — see storage/vector_store.h). The store is retained,
  /// never copied: hashing reads rows through it and verification runs off
  /// its contiguous base pointer. store->cols() must equal family->dim().
  void Build(std::shared_ptr<const storage::VectorStore> store);

  /// Raw-pointer convenience over `n` row-major `d`-dimensional vectors.
  /// The data is *referenced* (a non-owning BorrowedStore), not copied — it
  /// must outlive the index. `d` must equal family->dim().
  void Build(const float* data, size_t n, size_t d);

  /// c-k-ANNS query: verifies (λ + k - 1) candidates from the k-LCCS search
  /// of H(q) and returns the k nearest by true distance (ascending). A
  /// one-row QueryBatch on the calling thread.
  std::vector<util::Neighbor> Query(const float* query, size_t k,
                                    size_t lambda) const;

  /// Answers `num_queries` queries stored row-major and contiguously (dim()
  /// floats each) — the one query path of the scheme. The window is
  /// processed in shared passes: one ParallelFor pass that hashes each
  /// query, runs its probes' bound cascades and one Algorithm 2 drain over
  /// per-thread reusable scratch (its chains walk the CSA's adjacent-LCP
  /// arrays, not hash strings), an int8 prune and exact rerank
  /// (storage::PruneAndRerank) for queries the store's quantized tier can
  /// cut to k' = RerankKeep(k), and, for the rest, one deduplicated
  /// PrefetchRows + cache-blocked verification gather over the ascending
  /// union of candidate rows, scattering distances back into each query's
  /// TopK in its original candidate order (which fixes tie-breaking, so a
  /// row's answer does not depend on the window it shares).
  std::vector<std::vector<util::Neighbor>> QueryBatch(const float* queries,
                                                      size_t num_queries,
                                                      size_t k, size_t lambda,
                                                      size_t num_threads = 0)
      const;

  /// Raw candidates across the probing sequence without distance
  /// verification: the search QueryBatch runs, for one query (exposes the
  /// k-LCCS search itself; used by tests and diagnostics). At one probe it
  /// is Algorithm 2 over H(q), i.e. csa().Search(H(q), count).
  std::vector<LccsCandidate> Candidates(const float* query,
                                        size_t count) const;

  const ProbeParams& probe_params() const { return params_; }
  void set_probe_params(const ProbeParams& params) { params_ = params; }

  size_t n() const { return n_; }
  size_t dim() const { return d_; }
  size_t m() const { return family_->num_functions(); }
  util::Metric metric() const { return metric_; }
  const lsh::HashFamily& family() const { return *family_; }
  const CircularShiftArray& csa() const { return csa_; }

  /// Index memory: CSA arrays plus the family's parameters.
  size_t SizeBytes() const { return csa_.SizeBytes() + family_->SizeBytes(); }

  /// Ablation switch forwarded to the CSA (see
  /// CircularShiftArray::set_use_narrowing).
  void set_use_narrowing(bool enabled) { csa_.set_use_narrowing(enabled); }

  /// Frees the CSA's next-link arrays (2/7 of its arrays) at the cost
  /// of full-range binary searches per shift; results are unchanged. The
  /// next Build restores them (see CircularShiftArray::ReleaseNextLinks).
  void ReleaseNextLinks() { csa_.ReleaseNextLinks(); }

 private:
  /// Reusable per-thread candidate-generation workspace: one scratch serves
  /// consecutive queries without reallocating, and must never be shared
  /// across threads. The multi-probe buffers stay empty at one probe. A
  /// perturbed probe string is needed only for its own bound searches (the
  /// drain reads none), so one buffer holds each in turn.
  struct QueryScratch {
    CircularShiftArray::SearchScratch csa;
    std::vector<HashValue> hash;                  ///< H(q) of the query
    std::vector<HashValue> probe;                 ///< current probe string
    std::vector<std::vector<lsh::AltHash>> alts;  ///< per-position alts
    std::vector<int32_t> reach;                   ///< matched window lengths
    std::vector<char> affected;                   ///< shifts to re-search
  };

  /// Everything of the candidate search up to (not including) the heap pop
  /// loop: one hashing pass into scratch->hash (with more than one probe it
  /// also yields every position's alternatives), the base bound cascade
  /// and the perturbed probes of Section 4.2, all seeding one heap for
  /// CircularShiftArray::CollectFromHeap.
  void PrepareSearch(const float* query, QueryScratch* scratch) const;

  /// Candidates fetched per query: the paper's λ + k - 1.
  static size_t CandidateBudget(size_t k, size_t lambda) {
    return lambda + (k > 0 ? k - 1 : 0);
  }

  std::unique_ptr<lsh::HashFamily> family_;
  util::Metric metric_;
  ProbeParams params_;
  std::shared_ptr<const storage::VectorStore> store_;  ///< base vectors
  size_t n_ = 0;
  size_t d_ = 0;
  CircularShiftArray csa_;
};

/// The paper's name for the multi-probe scheme (MP-LCCS-LSH, Section 4.2):
/// the same class, constructed with ProbeParams::num_probes > 1. Its last
/// user is lccs_bench/probes.cc; the alias goes with the next change to the
/// benchmark.
using MpLccsLsh = LccsLsh;

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_LCCS_LSH_H_
