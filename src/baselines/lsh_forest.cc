#include "baselines/lsh_forest.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

LshForest::LshForest(lsh::FamilyKind family, Params params)
    : family_kind_(family), params_(params) {
  assert(params_.num_trees >= 1 && params_.depth >= 1);
}

int32_t LshForest::Lcp(size_t tree, int32_t id,
                       const lsh::HashValue* hq) const {
  const size_t total = params_.num_trees * params_.depth;
  const lsh::HashValue* s =
      strings_.data() + static_cast<size_t>(id) * total + tree * params_.depth;
  const lsh::HashValue* q = hq + tree * params_.depth;
  int32_t len = 0;
  while (len < static_cast<int32_t>(params_.depth) && s[len] == q[len]) {
    ++len;
  }
  return len;
}

int LshForest::Compare(size_t tree, int32_t id,
                       const lsh::HashValue* hq) const {
  const size_t total = params_.num_trees * params_.depth;
  const lsh::HashValue* s =
      strings_.data() + static_cast<size_t>(id) * total + tree * params_.depth;
  const lsh::HashValue* q = hq + tree * params_.depth;
  for (size_t j = 0; j < params_.depth; ++j) {
    if (s[j] != q[j]) return s[j] < q[j] ? -1 : 1;
  }
  return 0;
}

void LshForest::Build(const dataset::Dataset& data) {
  store_ = data.data.store();
  metric_ = data.metric;
  const size_t total = params_.num_trees * params_.depth;
  family_ = lsh::MakeFamily(family_kind_, data.dim(), total, params_.w,
                            params_.seed);
  const storage::VectorStore& rows = *store_;
  strings_.assign(data.n() * total, 0);
  util::ParallelFor(data.n(), [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      family_->Hash(rows.Row(i), strings_.data() + i * total);
    });
  });
  sorted_.assign(params_.num_trees, {});
  for (size_t tree = 0; tree < params_.num_trees; ++tree) {
    auto& order = sorted_[tree];
    order.resize(data.n());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this, tree, total](int32_t a, int32_t b) {
                const lsh::HashValue* sa = strings_.data() +
                                           static_cast<size_t>(a) * total +
                                           tree * params_.depth;
                const lsh::HashValue* sb = strings_.data() +
                                           static_cast<size_t>(b) * total +
                                           tree * params_.depth;
                for (size_t j = 0; j < params_.depth; ++j) {
                  if (sa[j] != sb[j]) return sa[j] < sb[j];
                }
                return a < b;
              });
  }
}

std::vector<util::Neighbor> LshForest::Query(const float* query,
                                             size_t k) const {
  assert(store_ != nullptr);
  const size_t total = params_.num_trees * params_.depth;
  std::vector<lsh::HashValue> hq(total);
  family_->Hash(query, hq.data());
  const auto n = static_cast<int32_t>(store_->rows());

  // One frontier entry per (tree, direction); pops in non-increasing prefix
  // length order across trees (the "synchronous descent" of the original
  // forest, bottom-up phase).
  struct Entry {
    int32_t len;
    int32_t pos;
    int32_t tree;
    int8_t dir;
  };
  auto entry_less = [](const Entry& a, const Entry& b) {
    if (a.len != b.len) return a.len < b.len;
    if (a.tree != b.tree) return a.tree > b.tree;
    return a.pos > b.pos;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(entry_less)> pq(
      entry_less);
  for (size_t tree = 0; tree < params_.num_trees; ++tree) {
    const auto& order = sorted_[tree];
    // Upper bound: first position whose string compares greater than hq.
    int32_t left = 0, right = n;
    while (left < right) {
      const int32_t mid = left + (right - left) / 2;
      if (Compare(tree, order[mid], hq.data()) > 0) {
        right = mid;
      } else {
        left = mid + 1;
      }
    }
    if (left - 1 >= 0) {
      pq.push({Lcp(tree, order[left - 1], hq.data()), left - 1,
               static_cast<int32_t>(tree), -1});
    }
    if (left < n) {
      pq.push({Lcp(tree, order[left], hq.data()), left,
               static_cast<int32_t>(tree), +1});
    }
  }

  // The frontier walk only decides *which* points to examine; true
  // distances are batched into one verification pass afterwards.
  std::unordered_set<int32_t> seen;
  std::vector<int32_t> cand_ids;
  cand_ids.reserve(params_.candidates);
  while (cand_ids.size() < params_.candidates && !pq.empty()) {
    const Entry e = pq.top();
    pq.pop();
    const int32_t id = sorted_[e.tree][e.pos];
    if (seen.insert(id).second) cand_ids.push_back(id);
    const int32_t npos = e.pos + e.dir;
    if (npos >= 0 && npos < n) {
      pq.push({Lcp(e.tree, sorted_[e.tree][npos], hq.data()), npos, e.tree,
               e.dir});
    }
  }
  store_->PrefetchRows(cand_ids.data(), cand_ids.size());
  util::TopK topk(k);
  util::VerifyCandidates(metric_, store_->data(), store_->cols(), query,
                         cand_ids.data(), cand_ids.size(), topk);
  return topk.Sorted();
}

size_t LshForest::IndexSizeBytes() const {
  size_t bytes = family_ ? family_->SizeBytes() : 0;
  bytes += strings_.size() * sizeof(lsh::HashValue);
  for (const auto& order : sorted_) bytes += order.size() * sizeof(int32_t);
  return bytes;
}

}  // namespace baselines
}  // namespace lccs
