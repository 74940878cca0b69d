#include "core/csa.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace lccs {
namespace core {

void CircularShiftArray::Build(const HashValue* strings, size_t n, size_t m) {
  Build(std::vector<HashValue>(strings, strings + n * m), m);
}

void CircularShiftArray::Build(std::vector<HashValue> strings, size_t m) {
  assert(m >= 1 && strings.size() >= m && strings.size() % m == 0);
  const size_t n = strings.size() / m;
  // HeapKey field widths (see PackHeapKey): shift/len take 12 bits, pos 31.
  assert(m <= 0xFFF && n <= 0x7FFFFFFF);
  n_ = n;
  m_ = m;
  data_ = std::move(strings);
  sorted_.assign(m * n, 0);
  next_.assign(m * n, 0);
  if (next_released_) {
    // Rebuilding restores the links a prior ReleaseNextLinks dropped.
    next_released_ = false;
    use_narrowing_ = true;
  }

  // Shift 0 is sorted directly with the circular comparator (ties by id so
  // builds are deterministic).
  int32_t* order0 = sorted_.data();
  std::iota(order0, order0 + n, 0);
  std::sort(order0, order0 + n, [this](int32_t a, int32_t b) {
    int32_t lcp = 0;
    const int cmp = CompareShifted(String(a), String(b), m_, 0, &lcp);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });

  DeriveShiftOrders();
  DeriveAdjacentLcp();
}

void CircularShiftArray::DeriveShiftOrders() {
  const size_t n = n_;
  const size_t m = m_;
  // Derive the remaining shift orders from their successors, in decreasing
  // shift order: shift(T, i) = [t_i] ++ (shift(T, i+1) minus its last
  // element), and I_{(i+1) % m} is already in shift-(i+1) order, so I_i is
  // I_{(i+1) % m} stably bucketed by t_i (see class comment). Each shift is
  // one LSD counting sort of the successor's positions on t_i, mapped to an
  // order-preserving unsigned key less the column minimum, kDigitBits at a
  // time; digits above the column's range are never sorted on, so a
  // small-alphabet column takes one pass. The permutation the sort leaves
  // is the next links: N_i[pos] is the position in I_{(i+1) % m} that I_i's
  // position pos came from (Algorithm 1, lines 3-7).
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  std::vector<uint32_t> keys(n), keys_tmp(n);
  std::vector<int32_t> from(n), from_tmp(n);
  std::vector<int32_t> count;
  for (size_t i = m; i-- > 1;) {
    const int32_t* succ = sorted_.data() + ((i + 1) % m) * n;
    uint32_t lo = std::numeric_limits<uint32_t>::max(), hi = 0;
    for (size_t p = 0; p < n; ++p) {
      const uint32_t key =
          static_cast<uint32_t>(data_[static_cast<size_t>(succ[p]) * m + i]) ^
          0x80000000u;
      keys[p] = key;
      lo = std::min(lo, key);
      hi = std::max(hi, key);
    }
    const uint32_t range = hi - lo;
    std::iota(from.begin(), from.end(), 0);
    int32_t* link = next_.data() + i * n;
    for (int shift = 0;; shift += kDigitBits) {
      const uint32_t top = range >> shift;
      const bool last = top <= kDigitMask;
      count.assign(std::min(top, kDigitMask) + 1, 0);
      for (size_t p = 0; p < n; ++p) {
        ++count[((keys[p] - lo) >> shift) & kDigitMask];
      }
      int32_t sum = 0;
      for (int32_t& c : count) sum += std::exchange(c, sum);
      if (last) {
        for (size_t p = 0; p < n; ++p) {
          link[count[((keys[p] - lo) >> shift) & kDigitMask]++] = from[p];
        }
        break;
      }
      for (size_t p = 0; p < n; ++p) {
        const int32_t dst = count[((keys[p] - lo) >> shift) & kDigitMask]++;
        keys_tmp[dst] = keys[p];
        from_tmp[dst] = from[p];
      }
      keys.swap(keys_tmp);
      from.swap(from_tmp);
    }
    int32_t* order = sorted_.data() + i * n;
    for (size_t pos = 0; pos < n; ++pos) order[pos] = succ[link[pos]];
  }

  // N_0 through the inverse of I_{1 % m}: rank[id] = position of id there.
  std::vector<int32_t>& rank = from;
  const int32_t* order1 = sorted_.data() + (1 % m) * n;
  for (size_t pos = 0; pos < n; ++pos) {
    rank[order1[pos]] = static_cast<int32_t>(pos);
  }
  const int32_t* order0 = sorted_.data();
  for (size_t pos = 0; pos < n; ++pos) next_[pos] = rank[order0[pos]];
}

void CircularShiftArray::DeriveAdjacentLcp() {
  const size_t n = n_;
  const size_t m = m_;
  lcp_.assign(m * n, 0);
  // L_0 by direct compares of the neighbours in I_0.
  const int32_t* order0 = sorted_.data();
  for (size_t p = 0; p + 1 < n; ++p) {
    int32_t lcp = 0;
    [[maybe_unused]] const int cmp =
        CompareShifted(String(order0[p]), String(order0[p + 1]), m, 0, &lcp);
    assert(cmp <= 0);
    lcp_[p] = static_cast<uint16_t>(lcp);
  }
  // Every other shift from its successor, in decreasing shift order (the
  // order Build derives I_i in). Neighbours of I_i whose symbols at shift i
  // differ share nothing; equal symbols put the pair's strings in I_{i+1}
  // order at N_i[p] < N_i[p+1], where their LCP is the min of L_{i+1} over
  // [N_i[p], N_i[p+1]) — the strings between them are sorted too — so
  // L_i[p] = min(m, 1 + that min).
  //
  // The range mins are answered in one sweep over I_{i+1}: N_i is a
  // permutation, so at most one pair's range ends at each position q. A
  // range of up to kShortRange positions is scanned directly; a longer one
  // reads `last`, the latest position before q holding each L value: the
  // range min is the smallest value whose latest position is at or after
  // the range start. That scan takes one step per value below the answer,
  // and the min over a long range is small.
  //
  // Symbols are read through a column-major copy of kBlock shifts at a time
  // (one cache line of each row per refill), so the per-shift gather hits a
  // 4n-byte column instead of a random row of data_.
  constexpr size_t kBlock = 64 / sizeof(HashValue);
  constexpr int32_t kShortRange = 8;
  std::vector<HashValue> columns(std::min(kBlock, m) * n);
  size_t block_lo = m;  // columns holds shifts [block_lo, block_lo + kBlock)
  std::vector<int32_t> start(n);      // range start of the pair ending at q
  std::vector<uint16_t> pair_lcp(n);  // LCP of the pair ending at q
  std::vector<int32_t> last(m + 1);
  for (size_t i = m; i-- > 1;) {
    if (i < block_lo) {
      block_lo = i + 1 > kBlock ? i + 1 - kBlock : 0;
      const size_t width = i + 1 - block_lo;
      for (size_t id = 0; id < n; ++id) {
        const HashValue* row = data_.data() + id * m + block_lo;
        for (size_t j = 0; j < width; ++j) columns[j * n + id] = row[j];
      }
    }
    const HashValue* column = columns.data() + (i - block_lo) * n;
    const int32_t* order = sorted_.data() + i * n;
    const int32_t* link = next_.data() + i * n;
    const uint16_t* succ = lcp_.data() + ((i + 1) % m) * n;
    std::fill(start.begin(), start.end(), -2);  // -2: no string maps here
    HashValue prev = 0;
    for (size_t p = 0; p < n; ++p) {
      const HashValue symbol = column[order[p]];
      int32_t from = -1;  // -1: the pair ending here has unequal symbols
      if (p > 0) {
        assert(prev <= symbol);
        if (prev == symbol) from = link[p - 1];
      }
      start[link[p]] = from;
      prev = symbol;
    }
    std::fill(last.begin(), last.end(), -1);
    for (int32_t q = 0; q < static_cast<int32_t>(n); ++q) {
      const int32_t from = start[q];
      assert(from != -2);
      uint16_t len = 0;
      if (from >= 0) {
        assert(from < q);
        size_t range_min = succ[from];
        if (q - from <= kShortRange) {
          for (int32_t x = from + 1; x < q; ++x) {
            range_min = std::min<size_t>(range_min, succ[x]);
          }
        } else {
          range_min = 0;
          while (last[range_min] < from) ++range_min;
        }
        len = static_cast<uint16_t>(std::min(m, range_min + 1));
      }
      pair_lcp[q] = len;
      last[succ[q]] = q;
    }
    uint16_t* adj = lcp_.data() + i * n;
    for (size_t p = 0; p + 1 < n; ++p) adj[p] = pair_lcp[link[p + 1]];
  }
}

CircularShiftArray::ShiftBounds CircularShiftArray::SearchShift(
    const HashValue* query, size_t shift, int32_t lo, int32_t hi) const {
  assert(lo >= 0 && hi < static_cast<int32_t>(n_) && lo <= hi);
  // Find the first position in [lo, hi] whose string compares greater than
  // shift(Q, shift); everything before it is <= Q. Manber–Myers LCP bounds:
  // whenever both ends of the open interval (left-1, right) have had their
  // LCP against the query measured, every string strictly between them
  // shares at least min(llcp, rlcp) leading symbols with the query (sorted
  // strings between two strings with a common prefix also carry it), so
  // each probe resumes comparing at that offset instead of at symbol 0 —
  // with the deep collision runs a small bucket width w produces, that is
  // the difference between O(log n) and O(m log n) symbol reads per shift.
  int32_t left = lo;
  int32_t right = hi + 1;
  int32_t llcp = 0, rlcp = 0;     // LCP(query, ...) at left-1 / right
  bool lvalid = false, rvalid = false;  // initial bounds were never probed
  while (left < right) {
    const int32_t mid = left + (right - left) / 2;
    const int32_t skip =
        std::min(lvalid ? llcp : 0, rvalid ? rlcp : 0);
    int32_t lcp = 0;
    const int cmp =
        CompareShifted(String(SortedId(shift, mid)), query, m_, shift, &lcp,
                       skip);
    if (cmp > 0) {
      right = mid;
      rlcp = lcp;
      rvalid = true;
    } else {
      left = mid + 1;
      llcp = lcp;
      lvalid = true;
    }
  }
  ShiftBounds b;
  b.pos_lo = left - 1;
  b.pos_hi = left;
  if (b.pos_lo >= 0) {
    b.len_lo = lvalid ? llcp : Lcp(SortedId(shift, b.pos_lo), query, shift);
  }
  if (b.pos_hi < static_cast<int32_t>(n_)) {
    b.len_hi = rvalid ? rlcp : Lcp(SortedId(shift, b.pos_hi), query, shift);
  }
  return b;
}

CircularShiftArray::ShiftBounds CircularShiftArray::SearchShiftFrom(
    const HashValue* query, size_t shift, const ShiftBounds& prev) const {
  const auto n = static_cast<int32_t>(n_);
  if (use_narrowing_ && prev.pos_lo >= 0 && prev.pos_hi < n &&
      prev.len_lo >= 1 && prev.len_hi >= 1) {
    const int32_t lo = NextPosition(shift - 1, prev.pos_lo);
    const int32_t hi = NextPosition(shift - 1, prev.pos_hi);
    if (lo <= hi) return SearchShift(query, shift, lo, hi);
  }
  return SearchShift(query, shift, 0, n - 1);
}

void CircularShiftArray::SearchScratch::Begin(size_t n, size_t m,
                                              size_t positions) {
  if (seen.size() < n) seen.assign(n, 0);
  if (positions > 0 && visited.size() < m * n) visited.assign(m * n, 0);
  heap.clear();
  dedup_positions = positions > 0;
  if (++stamp == 0) {
    // Stamp wraparound (every 255 queries on one scratch with uint8
    // stamps): stale stamps could alias, so pay one full reset and restart
    // at 1 — n + m*n bytes every 255 queries is noise next to the lookups
    // the byte-dense arrays save on every query.
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(visited.begin(), visited.end(), 0);
    stamp = 1;
  }
}

void CircularShiftArray::PushBounds(const ShiftBounds& b, size_t shift,
                                    int32_t probe,
                                    SearchScratch* scratch) const {
  const auto n = static_cast<int32_t>(n_);
  assert(probe >= 0);
  probe = std::min(probe, kMaxProbeTag);
  auto& heap = scratch->heap;
  if (b.pos_lo >= 0) {
    heap.push_back(PackHeapKey(b.len_lo, static_cast<int32_t>(shift),
                               b.pos_lo, probe, -1));
    std::push_heap(heap.begin(), heap.end());
  }
  if (b.pos_hi < n) {
    heap.push_back(PackHeapKey(b.len_hi, static_cast<int32_t>(shift),
                               b.pos_hi, probe, +1));
    std::push_heap(heap.begin(), heap.end());
  }
}

void CircularShiftArray::SearchBounds(const HashValue* query,
                                      SearchScratch* scratch) const {
  assert(!empty());
  const auto n = static_cast<int32_t>(n_);
  scratch->state.assign(m_, ShiftBounds{});
  // Line 2 of Algorithm 2: one full binary search on I_0, then lines 5-11:
  // narrowed binary searches driven by the next links (Corollary 3.2),
  // falling back to a full search when the previous shift matched less than
  // one symbol.
  scratch->state[0] = SearchShift(query, 0, 0, n - 1);
  PushBounds(scratch->state[0], 0, 0, scratch);
  for (size_t i = 1; i < m_; ++i) {
    scratch->state[i] = SearchShiftFrom(query, i, scratch->state[i - 1]);
    PushBounds(scratch->state[i], i, 0, scratch);
  }
}

void CircularShiftArray::CollectFromHeap(
    size_t count, SearchScratch* scratch,
    std::vector<LccsCandidate>* out) const {
  // Lines 12-15: pop the frontier in non-increasing LCP order; per shift and
  // direction the LCP is monotone non-increasing away from the query
  // position (Fact 3.2), so the first pop of an id yields |LCCS(T_id, Q)|.
  // HeapKey order is total, so the pop sequence depends only on the set of
  // entries, never on push order or heap layout.
  const auto n = static_cast<int32_t>(n_);
  auto& heap = scratch->heap;
  uint8_t* seen = scratch->seen.data();
  const uint8_t stamp = scratch->stamp;
  while (out->size() < count && !heap.empty()) {
    const HeapKey key = heap.front();
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    const int32_t len = HeapKeyLen(key);
    const int32_t shift = HeapKeyShift(key);
    const int32_t pos = HeapKeyPos(key);
    const int32_t dir = HeapKeyDir(key);
    const size_t base = static_cast<size_t>(shift) * n_;
    // Frontier-position dedup (multi-probe): a position another probe's
    // chain already consumed is neither emitted nor advanced again.
    uint8_t* visited =
        scratch->dedup_positions ? scratch->visited.data() + base : nullptr;
    if (visited != nullptr) {
      if (visited[pos] == stamp) continue;
      visited[pos] = stamp;
    }
    const int32_t* ids = sorted_.data() + base;
    if (seen[ids[pos]] != stamp) {
      seen[ids[pos]] = stamp;
      out->push_back({ids[pos], len});
    }
    // Advance the chain. Its LCP against the probe is the running min of
    // L_shift over every pair it steps across — a step down to npos crosses
    // L[npos], a step up crosses L[npos - 1] — so skipped positions still
    // lower it, and no hash string is read. Two shortcuts, both
    // order-preserving:
    //
    // Fast-forward: skip positions that can no longer contribute — ids
    // already emitted (and, multi-probe, frontier positions another probe
    // already consumed). Each skipped step costs one stamped-array lookup
    // instead of a full heap cycle — with m chains surfacing overlapping id
    // sets, duplicate pops otherwise dominate the search (super-linearly in
    // the candidate budget as the unique ids thin out). Marks only
    // accumulate within a query, so a mark observed here would also be
    // observed at the (later) pop of the same entry.
    //
    // Run extension: while the successor's LCP *equals* the popped length,
    // emit it in place instead of cycling it through the heap. The pop
    // order is a total order on (len desc, shift asc, pos asc, probe, dir),
    // so among equal lengths the smallest shift drains first, and within a
    // shift each chain re-enters as the front as long as its length holds
    // (the lo chain's positions only decrease, the hi chain stays above
    // it) — no pending or future entry can interpose inside an equal-LCP
    // run of one chain, and the emitted sequence is exactly the heap's.
    const uint16_t* adj = lcp_.data() + base;
    const int32_t cross = dir > 0 ? -1 : 0;  // L index of the step to npos
    int32_t run = len;
    for (int32_t npos = pos + dir; npos >= 0 && npos < n; npos += dir) {
      run = std::min<int32_t>(run, adj[npos + cross]);
      if (visited != nullptr && visited[npos] == stamp) continue;
      const int32_t nid = ids[npos];
      if (seen[nid] == stamp) continue;
      if (run != len || out->size() >= count) {
        heap.push_back(
            PackHeapKey(run, shift, npos, HeapKeyProbe(key), dir));
        std::push_heap(heap.begin(), heap.end());
        break;
      }
      if (visited != nullptr) visited[npos] = stamp;
      seen[nid] = stamp;
      out->push_back({nid, run});
    }
  }
}

std::vector<LccsCandidate> CircularShiftArray::Search(const HashValue* query,
                                                      size_t k) const {
  std::vector<ShiftBounds> state;
  return Search(query, k, &state);
}

std::vector<LccsCandidate> CircularShiftArray::Search(
    const HashValue* query, size_t k, std::vector<ShiftBounds>* state) const {
  assert(!empty());
  SearchScratch scratch;
  scratch.Begin(n_, m_, 0);
  SearchBounds(query, &scratch);
  std::vector<LccsCandidate> result;
  result.reserve(std::min<size_t>(k, n_));
  CollectFromHeap(k, &scratch, &result);
  *state = std::move(scratch.state);
  return result;
}

void CircularShiftArray::ReleaseNextLinks() {
  std::vector<int32_t>().swap(next_);
  use_narrowing_ = false;
  next_released_ = true;
}

}  // namespace core
}  // namespace lccs
