#include "baselines/static_lsh.h"

#include <cassert>
#include <cstddef>
#include <unordered_set>

#include "core/perturbation.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t CombineHash(uint64_t key, lsh::HashValue value) {
  key ^= static_cast<uint64_t>(static_cast<uint32_t>(value));
  key *= kFnvPrime;
  return key;
}

}  // namespace

StaticLsh::StaticLsh(std::string display_name, lsh::FamilyKind family,
                     Params params)
    : display_name_(std::move(display_name)),
      family_kind_(family),
      params_(params) {
  assert(params_.k_funcs >= 1 && params_.num_tables >= 1);
  assert(params_.num_probes >= 1);
}

uint64_t StaticLsh::TableKey(size_t t, const lsh::HashValue* hashes) const {
  uint64_t key = kFnvOffset;
  const size_t base = t * params_.k_funcs;
  for (size_t j = 0; j < params_.k_funcs; ++j) {
    key = CombineHash(key, hashes[base + j]);
  }
  return key;
}

void StaticLsh::Build(const dataset::Dataset& data) {
  store_ = data.data.store();
  metric_ = data.metric;
  const size_t total_funcs = params_.k_funcs * params_.num_tables;
  family_ = lsh::MakeFamily(family_kind_, data.dim(), total_funcs, params_.w,
                            params_.seed);
  tables_.assign(params_.num_tables, {});

  // Hash all points in parallel, then fill tables sequentially (the table
  // maps are not thread-safe; hashing dominates anyway).
  const storage::VectorStore& rows = *store_;
  std::vector<lsh::HashValue> hashes(data.n() * total_funcs);
  util::ParallelFor(data.n(), [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      family_->Hash(rows.Row(i), hashes.data() + i * total_funcs);
    });
  });
  for (size_t i = 0; i < data.n(); ++i) {
    const lsh::HashValue* h = hashes.data() + i * total_funcs;
    for (size_t t = 0; t < params_.num_tables; ++t) {
      tables_[t][TableKey(t, h)].push_back(static_cast<int32_t>(i));
    }
  }
}

std::vector<util::Neighbor> StaticLsh::Query(const float* query,
                                             size_t k) const {
  assert(store_ != nullptr);
  const size_t total_funcs = params_.k_funcs * params_.num_tables;
  std::vector<lsh::HashValue> hq(total_funcs);
  // Multi-probe takes every function's alternatives from the hashing pass.
  std::vector<std::vector<lsh::AltHash>> all_alts;
  if (params_.num_probes > 1) {
    family_->HashWithAlternatives(query, params_.num_alternatives, hq.data(),
                                  &all_alts);
  } else {
    family_->Hash(query, hq.data());
  }

  std::unordered_set<int32_t> seen;
  const size_t d = store_->cols();
  // Bucket probing only collects unique candidate ids; the true-distance
  // work happens in one batched verification pass at the end.
  std::vector<int32_t> cand_ids;
  auto probe_bucket = [&](size_t t, uint64_t key) {
    const auto& table = tables_[t];
    const auto it = table.find(key);
    if (it == table.end()) return;
    for (const int32_t id : it->second) {
      if (!seen.insert(id).second) continue;
      cand_ids.push_back(id);
    }
  };

  for (size_t t = 0; t < params_.num_tables; ++t) {
    probe_bucket(t, TableKey(t, hq.data()));
    if (params_.num_probes <= 1) continue;

    // Query-directed probing within this table: perturbation vectors over
    // the K positions of the compound key, ordered by ascending score
    // (Multi-Probe LSH / FALCONN). MAX_GAP is irrelevant for keys this
    // short, so it is set to K (no restriction).
    const size_t base = t * params_.k_funcs;
    const auto first = all_alts.begin() + static_cast<std::ptrdiff_t>(base);
    const std::vector<std::vector<lsh::AltHash>> alts(
        first, first + static_cast<std::ptrdiff_t>(params_.k_funcs));
    core::PerturbationGenerator gen(&alts,
                                    static_cast<int>(params_.k_funcs));
    core::PerturbationVector delta;
    gen.Next(&delta);  // skip the empty vector: base bucket already probed
    std::vector<lsh::HashValue> perturbed(params_.k_funcs);
    for (size_t p = 1; p < params_.num_probes && gen.Next(&delta); ++p) {
      for (size_t j = 0; j < params_.k_funcs; ++j) {
        perturbed[j] = hq[base + j];
      }
      for (const core::Perturbation& mod : delta) {
        perturbed[mod.pos] = mod.value;
      }
      uint64_t key = kFnvOffset;
      for (size_t j = 0; j < params_.k_funcs; ++j) {
        key = CombineHash(key, perturbed[j]);
      }
      probe_bucket(t, key);
    }
  }
  store_->PrefetchRows(cand_ids.data(), cand_ids.size());
  util::TopK topk(k);
  util::VerifyCandidates(metric_, store_->data(), d, query, cand_ids.data(),
                         cand_ids.size(), topk);
  last_candidates_.store(cand_ids.size(), std::memory_order_relaxed);
  return topk.Sorted();
}

size_t StaticLsh::IndexSizeBytes() const {
  size_t bytes = family_ ? family_->SizeBytes() : 0;
  for (const auto& table : tables_) {
    bytes += table.size() * (sizeof(uint64_t) + sizeof(void*) * 2);
    for (const auto& [key, bucket] : table) {
      (void)key;
      bytes += bucket.size() * sizeof(int32_t);
    }
  }
  return bytes;
}

}  // namespace baselines
}  // namespace lccs
