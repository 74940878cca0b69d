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

/// Single-probe LCCS-LSH (Section 4.1).
///
/// Indexing phase: draw m i.i.d. LSH functions from the injected family,
/// convert every data object o into the hash string
/// H(o) = [h_1(o), ..., h_m(o)], and build a Circular Shift Array over the n
/// hash strings.
///
/// Query phase: compute H(q), run a (λ + k - 1)-LCCS search on the CSA, and
/// verify the returned candidates with the true distance metric, keeping the
/// best k.
///
/// The scheme is LSH-family-independent: any HashFamily works, which is how
/// the same class serves Euclidean (random projection), Angular
/// (cross-polytope / hyperplane) and Hamming (bit sampling) queries.
class LccsLsh {
 public:
  /// Takes ownership of the hash family (which fixes m = family->
  /// num_functions()); `metric` is used only for candidate verification.
  LccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric);

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
  /// query and runs its Algorithm 2 drain over per-thread reusable scratch
  /// (its chains walk the CSA's adjacent-LCP arrays, not hash strings), an
  /// int8 prune and exact rerank (storage::PruneAndRerank) for queries the
  /// store's quantized tier can cut to k' = RerankKeep(k), and, for the
  /// rest, one deduplicated PrefetchRows + cache-blocked verification
  /// gather over the ascending union of candidate rows, scattering
  /// distances back into each query's TopK in its original candidate order
  /// (which fixes tie-breaking, so a row's answer does not depend on the
  /// window it shares).
  std::vector<std::vector<util::Neighbor>> QueryBatch(const float* queries,
                                                      size_t num_queries,
                                                      size_t k, size_t lambda,
                                                      size_t num_threads = 0)
      const;

  /// Raw LCCS candidates of H(q) without distance verification (exposes the
  /// k-LCCS search itself; used by tests and diagnostics). Deliberately
  /// non-virtual: `mp.LccsLsh::Candidates(...)` must keep meaning the
  /// single-probe Algorithm 2 search even on a multi-probe object.
  std::vector<LccsCandidate> Candidates(const float* query,
                                        size_t count) const;

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
  /// of full-range binary searches per shift; results are unchanged. See
  /// CircularShiftArray::ReleaseNextLinks for the serialization caveat.
  void ReleaseNextLinks() { csa_.ReleaseNextLinks(); }

  /// Binds a previously serialized CSA instead of hashing + rebuilding
  /// (see core/serialize.h). The CSA must have been built over exactly this
  /// data with this index's family; n/m consistency is checked.
  void AttachPrebuilt(std::shared_ptr<const storage::VectorStore> store,
                      CircularShiftArray csa);
  void AttachPrebuilt(const float* data, size_t n, size_t d,
                      CircularShiftArray csa);

  // The user-declared (virtual) destructor would otherwise suppress moves,
  // and tests build indexes in by-value helper functions.
  LccsLsh(LccsLsh&&) = default;
  LccsLsh& operator=(LccsLsh&&) = default;
  virtual ~LccsLsh() = default;

 protected:
  /// Reusable per-thread candidate-generation workspace. MakeScratch is
  /// virtual so MpLccsLsh can extend it with probe buffers; one scratch
  /// serves consecutive queries without reallocating, and must never be
  /// shared across threads.
  struct QueryScratch {
    CircularShiftArray::SearchScratch csa;
    std::vector<HashValue> hash;  ///< H(q) of the query being searched
    virtual ~QueryScratch() = default;
  };
  virtual std::unique_ptr<QueryScratch> MakeScratch() const;

  /// Everything of the candidate search up to (not including) the heap pop
  /// loop: hashes the query into scratch->hash (MpLccsLsh takes its
  /// multi-probe alternatives from the same pass), begins the scratch and
  /// runs the bound cascade (plus, in MpLccsLsh, the perturbed probes of
  /// Section 4.2), leaving the seeded heap for
  /// CircularShiftArray::CollectFromHeap.
  virtual void PrepareSearch(const float* query, QueryScratch* scratch) const;

  /// Candidates fetched per query: the paper's λ + k - 1.
  static size_t CandidateBudget(size_t k, size_t lambda) {
    return lambda + (k > 0 ? k - 1 : 0);
  }

  std::unique_ptr<lsh::HashFamily> family_;
  util::Metric metric_;
  std::shared_ptr<const storage::VectorStore> store_;  ///< base vectors
  size_t n_ = 0;
  size_t d_ = 0;
  CircularShiftArray csa_;
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_LCCS_LSH_H_
