#include "core/lccs_lsh.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <utility>

#include "core/perturbation.h"
#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace core {
namespace {

// Whether a query's gather seeds a bound from its first k candidates. The
// bounded kernel only abandons rows on the Euclidean AVX2 tier, after whole
// 32-float rounds, and the seed pass scores k rows outside the blocks, with
// a bound that loosens as k grows. Measured on 25k-row shards at λ = 2000
// (4-vCPU x86 VM): d = 420 at k = 10 or 100 cut the window gather by
// 25–40%; d = 128 (SIFT analogue, k ∈ {10, 30, 100}) gained nothing or
// lost up to 11%, and d = 420 at k = 300, a list of 7.7·k, lost 40%. Hence
// rows of at least 8 rounds and lists of at least 16·k.
bool SeedsBound(util::Metric metric, size_t d, size_t k, size_t list_size) {
  constexpr size_t kMinDim = 256;
  constexpr size_t kMinListPerK = 16;
  return k > 0 && metric == util::Metric::kEuclidean && d >= kMinDim &&
         list_size >= kMinListPerK * k &&
         util::ActiveSimdTier() == util::SimdTier::kAvx2;
}

}  // namespace

LccsLsh::LccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric,
                 ProbeParams params)
    : family_(std::move(family)), metric_(metric), params_(params) {
  assert(family_ != nullptr);
}

void LccsLsh::Build(std::shared_ptr<const storage::VectorStore> store) {
  assert(store != nullptr && store->rows() >= 1);
  assert(store->cols() == family_->dim());
  store_ = std::move(store);
  n_ = store_->rows();
  d_ = store_->cols();
  const size_t m = family_->num_functions();
  // Hashing is embarrassingly parallel. The CSA build (Algorithm 1: one
  // comparison sort of shift 0, then one O(n) counting pass per further
  // shift) runs on one thread per index, as in the paper's single-thread
  // indexing cost model; a sharded index builds its shards' CSAs
  // concurrently, one pool task each (serve::ShardedIndex), and this
  // hashing loop then runs inline in that task. Each chunk advises the
  // store first so a memory-mapped base set streams in with read-ahead and
  // stays inside its residency budget. The strings move into the CSA, which
  // keeps them as its own.
  std::vector<HashValue> strings(n_ * m);
  const storage::VectorStore& rows = *store_;
  util::ParallelFor(n_, [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      family_->Hash(rows.Row(i), strings.data() + i * m);
    });
  });
  csa_.Build(std::move(strings), m);
}

void LccsLsh::Build(const float* data, size_t n, size_t d) {
  assert(data != nullptr);
  Build(storage::WrapBorrowed(data, n, d));
}

void LccsLsh::PrepareSearch(const float* query, QueryScratch* scratch) const {
  const size_t m = family_->num_functions();
  const bool multi = params_.num_probes > 1;
  // One hashing pass. A multi-probe search also takes every position's
  // alternatives from it, so each projection is evaluated once.
  scratch->hash.resize(m);
  HashValue* hash = scratch->hash.data();
  if (multi) {
    family_->HashWithAlternatives(query, params_.num_alternatives, hash,
                                  &scratch->alts);
  } else {
    family_->Hash(query, hash);
  }

  // Base λ-LCCS search (Algorithm 2 lines 2-11): per-shift bounds and the
  // seeded heap. Candidate extraction (CollectFromHeap, run by the caller)
  // is shared across all probes: it pops in non-increasing LCP order,
  // deduplicating both ids and — because probes overlap heavily in the
  // sorted orders (the redundancy problem of Example 4.1) — frontier
  // positions, which bounds the pop work per shift by n regardless of the
  // number of probes. It reads no probe string: every heap entry carries
  // its exact LCP, and the chains extend it through the CSA's adjacent-LCP
  // arrays.
  scratch->csa.Begin(n_, m, multi ? m * n_ : 0);
  csa_.SearchBounds(hash, &scratch->csa);
  if (!multi) return;

  // The matched window of shift i is [i, i + reach_i); a later probe only
  // needs to revisit shift i if it modifies a position inside that window.
  const auto n = static_cast<int32_t>(n_);
  scratch->reach.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const CircularShiftArray::ShiftBounds& b = scratch->csa.state[i];
    scratch->reach[i] = std::max({b.len_lo, b.len_hi, 1});
  }

  // Perturbed probes (Algorithm 3 ordering) over the alternatives above.
  PerturbationGenerator gen(&scratch->alts, params_.max_gap);
  PerturbationVector delta;
  // The first vector is the empty perturbation — already searched above.
  gen.Next(&delta);
  scratch->affected.resize(m);
  scratch->probe.resize(m);
  HashValue* probe = scratch->probe.data();
  for (size_t t = 1; t < params_.num_probes && gen.Next(&delta); ++t) {
    std::copy(hash, hash + m, probe);
    for (const Perturbation& p : delta) probe[p.pos] = p.value;

    // Skip unaffected positions: re-search shift i only when a modified
    // position lies in its matched window [i, i + reach_i) (circularly).
    if (params_.skip_unaffected) {
      std::fill(scratch->affected.begin(), scratch->affected.end(), 0);
      for (const Perturbation& p : delta) {
        for (size_t i = 0; i < m; ++i) {
          const auto offset =
              static_cast<int32_t>((p.pos - static_cast<int32_t>(i) +
                                    static_cast<int32_t>(m)) %
                                   static_cast<int32_t>(m));
          if (offset < scratch->reach[i]) scratch->affected[i] = 1;
        }
      }
    } else {
      std::fill(scratch->affected.begin(), scratch->affected.end(), 1);
    }
    for (size_t i = 0; i < m; ++i) {
      if (!scratch->affected[i]) continue;
      const auto b = csa_.SearchShift(probe, i, 0, n - 1);
      csa_.PushBounds(b, i, static_cast<int32_t>(t), &scratch->csa);
    }
  }
}

std::vector<LccsCandidate> LccsLsh::Candidates(const float* query,
                                               size_t count) const {
  assert(store_ != nullptr);
  QueryScratch scratch;
  PrepareSearch(query, &scratch);
  std::vector<LccsCandidate> out;
  out.reserve(std::min<size_t>(count, n_));
  csa_.CollectFromHeap(count, &scratch.csa, &out);
  return out;
}

std::vector<util::Neighbor> LccsLsh::Query(const float* query, size_t k,
                                           size_t lambda) const {
  return QueryBatch(query, 1, k, lambda, /*num_threads=*/1)[0];
}

std::vector<std::vector<util::Neighbor>> LccsLsh::QueryBatch(
    const float* queries, size_t num_queries, size_t k, size_t lambda,
    size_t num_threads) const {
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  if (num_queries == 0) return results;
  assert(store_ != nullptr);
  const size_t count = CandidateBudget(k, lambda);

  // Phases 1 and 2, per query on the chunk's reusable scratch: hashing and
  // the probes' bound cascades (PrepareSearch), then one Algorithm 2 drain.
  // Each list keeps the order the search surfaces candidates in — the order
  // phase 6 replays, which fixes TopK tie-breaking.
  std::vector<std::vector<LccsCandidate>> cands(num_queries);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        QueryScratch scratch;
        for (size_t q = begin; q < end; ++q) {
          cands[q].reserve(std::min<size_t>(count, n_));
          PrepareSearch(queries + q * d_, &scratch);
          csa_.CollectFromHeap(count, &scratch.csa, &cands[q]);
        }
      },
      num_threads);

  // Phase 3: int8 prune + exact rerank. With a quantized tier attached, a
  // query whose candidates outnumber k' = RerankKeep(k) is scored on
  // the in-RAM codes and its k' survivors go straight to the exact rerank
  // (storage::PruneAndRerank) — in place for heap stores, a copy gather for
  // budget-mapped ones, so the rerank neither faults the mapping nor ticks
  // its residency clock. The answered query's list is cleared, which takes
  // it out of the shared exact gather below.
  size_t qoff = 0;
  const storage::QuantizedStore* qs =
      k > 0 ? storage::ActiveQuantized(store_.get(), metric_, &qoff) : nullptr;
  if (qs != nullptr) {
    util::ParallelFor(
        num_queries,
        [&](size_t begin, size_t end) {
          std::vector<int32_t> ids;
          for (size_t q = begin; q < end; ++q) {
            ids.clear();
            for (const LccsCandidate& c : cands[q]) ids.push_back(c.id);
            std::optional<std::vector<util::Neighbor>> top =
                storage::PruneAndRerank(*store_, *qs, qoff, metric_,
                                        queries + q * d_, ids.data(),
                                        ids.size(), k);
            if (!top) continue;
            results[q] = std::move(*top);
            cands[q].clear();
          }
        },
        num_threads);
  }

  // Phase 4: lay out the exact gather. Each remaining query's candidates
  // are counting-sorted into cache-block-major order (block =
  // id >> block_shift over the id space): O(candidates) per query, and
  // phase 5 reads each (query, block) run straight from the precomputed
  // offsets. The union of ids is advised to the store once per window, in
  // ascending order (a scan of the in_union marks, cheaper than sorting),
  // so an mmap-resident base set faults each candidate page once per window
  // instead of once per query. Blocking and dedup only pay when several
  // lists can name the same row: a lone list is one block and, since the
  // CSA surfaces each id at most once, its own union.
  // A query that seeds a bound (see SeedsBound) keeps its first k
  // candidates out of the blocks: phase 5 scores them first.
  std::vector<size_t> offsets(num_queries + 1, 0);
  std::vector<size_t> seeds(num_queries, 0);
  size_t lists = 0;
  bool seeded = false;
  for (size_t q = 0; q < num_queries; ++q) {
    offsets[q + 1] = offsets[q] + cands[q].size();
    if (!cands[q].empty()) ++lists;
    if (SeedsBound(metric_, d_, k, cands[q].size())) {
      seeds[q] = k;
      seeded = true;
    }
  }
  const bool shared = lists > 1;
  // A shared block spans 2^block_shift rows, the largest power of two
  // within 256 KB of rows, so a candidate's block is a shift, not a
  // division. A bounded gather abandons most rows after a round or two and
  // reads about a quarter of the block's bytes, so a seeded window spans
  // 1 MB of rows instead: the same cache footprint, and runs per (query,
  // block) four times longer for the lane kernel. Shift 31 puts the whole
  // int32 id space in one block.
  size_t block_shift = 31;
  if (shared) {
    const size_t row_bytes = std::max<size_t>(1, d_ * sizeof(float));
    const size_t block_bytes = (seeded ? size_t{1024} : size_t{256}) << 10;
    block_shift = 0;
    while ((row_bytes << (block_shift + 1)) <= block_bytes) ++block_shift;
  }
  const size_t num_blocks = n_ > 0 ? ((n_ - 1) >> block_shift) + 1 : 0;
  const size_t total = offsets[num_queries];
  std::vector<uint8_t> in_union(shared ? n_ : 0, 0);
  std::vector<int32_t> union_ids;
  std::vector<int32_t> blocked_ids(total);    // per query, block-major
  std::vector<int32_t> blocked_slots(total);  // original slot of blocked_ids[i]
  std::vector<double> dists(total);
  // block_off row q: after the place pass, query q's block b run sits at
  // [b == 0 ? 0 : row[b-1], row[b]) within the query's region; row
  // [num_blocks] stays the query's candidate count.
  std::vector<int32_t> block_off((num_blocks + 1) * num_queries, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    const std::vector<LccsCandidate>& list = cands[q];
    int32_t* boff = block_off.data() + q * (num_blocks + 1);
    for (size_t s = 0; s < list.size(); ++s) {
      const auto id = static_cast<size_t>(list[s].id);
      if (s >= seeds[q]) ++boff[(id >> block_shift) + 1];
      if (shared) {
        in_union[id] = 1;
      } else {
        union_ids.push_back(list[s].id);
      }
    }
    for (size_t b = 1; b <= num_blocks; ++b) boff[b] += boff[b - 1];
    for (size_t s = seeds[q]; s < list.size(); ++s) {
      const int32_t id = list[s].id;
      const size_t b = static_cast<size_t>(id) >> block_shift;
      const size_t pos = static_cast<size_t>(boff[b]++);
      blocked_ids[offsets[q] + pos] = id;
      blocked_slots[offsets[q] + pos] = static_cast<int32_t>(s);
    }
  }
  for (size_t id = 0; id < in_union.size(); ++id) {
    if (in_union[id]) union_ids.push_back(static_cast<int32_t>(id));
  }
  if (!union_ids.empty()) {
    store_->PrefetchRows(union_ids.data(), union_ids.size());
  }

  // Phase 5: seeded, blocked verification gather. A seeding query first
  // scores its first k candidates (the longest LCCS matches) exactly into
  // their slots; the largest of those k distances, b, is at least the
  // query's final k-th distance. Then rows are scored block-by-block so a
  // row shared by several queries in the window is pulled into cache once
  // and reused; distances land at the candidate's original slot. With a
  // finite b, util::DistanceScatter abandons a row once its partial sum
  // proves its distance strictly greater than b, and leaves +inf in its
  // slot. Such a row can never enter the top k, nor change which tied rows
  // phase 6's TopK keeps: every element above the final k-th distance is
  // evicted or refused whatever its value. Every other distance is
  // bit-identical regardless of row grouping, so this changes evaluation
  // order and the discarded values only, never the answer.
  std::vector<double> bounds(num_queries,
                             std::numeric_limits<double>::infinity());
  if (seeded) {
    util::ParallelFor(
        num_queries,
        [&](size_t begin, size_t end) {
          std::vector<int32_t> ids;
          for (size_t q = begin; q < end; ++q) {
            if (seeds[q] == 0) continue;
            ids.clear();
            for (size_t s = 0; s < seeds[q]; ++s) {
              ids.push_back(cands[q][s].id);
            }
            double* seed_dists = dists.data() + offsets[q];
            util::DistanceMany(metric_, store_->data(), d_, queries + q * d_,
                               ids.data(), ids.size(), seed_dists);
            bounds[q] = *std::max_element(seed_dists, seed_dists + seeds[q]);
          }
        },
        num_threads);
  }
  util::ParallelFor(
      num_blocks,
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          for (size_t q = 0; q < num_queries; ++q) {
            const int32_t* boff = block_off.data() + q * (num_blocks + 1);
            const size_t s = b == 0 ? 0 : static_cast<size_t>(boff[b - 1]);
            const size_t e = static_cast<size_t>(boff[b]);
            if (s == e) continue;
            util::DistanceScatter(metric_, store_->data(), d_,
                                  queries + q * d_,
                                  blocked_ids.data() + offsets[q] + s,
                                  blocked_slots.data() + offsets[q] + s,
                                  e - s, dists.data() + offsets[q],
                                  bounds[q]);
          }
        }
      },
      num_threads);

  // Phase 6: replay each gathered query's TopK pushes in the original
  // candidate order — exactly the push sequence util::VerifyCandidates
  // would produce over the list. A query with an empty list has its answer
  // already (phase 3) or no candidates at all.
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        for (size_t q = begin; q < end; ++q) {
          const std::vector<LccsCandidate>& list = cands[q];
          if (list.empty()) continue;
          util::TopK topk(k);
          for (size_t s = 0; s < list.size(); ++s) {
            topk.Push(list[s].id, dists[offsets[q] + s]);
          }
          results[q] = topk.Sorted();
        }
      },
      num_threads);
  return results;
}

}  // namespace core
}  // namespace lccs
