#ifndef LCCS_CORE_CSA_H_
#define LCCS_CORE_CSA_H_

#include <cstdint>
#include <vector>

#include "core/lccs.h"

namespace lccs {
namespace core {

/// One answer of a k-LCCS search: a string id and the LCP length at the shift
/// through which the search surfaced it (a lower bound on |LCCS(T_id, Q)|,
/// and equal to it for the first time an id is popped).
struct LccsCandidate {
  int32_t id = -1;
  int32_t len = 0;
};

/// Circular Shift Array (Section 3.2, Algorithms 1 and 2).
///
/// Indexes n strings of identical length m so that k-LCCS queries
/// (Definition 3.3) run in O(log n + (m + k) log m) expected time
/// (Theorem 3.1). The structure stores, for every shift i in [0, m):
///
///   * I_i — the ids of all strings sorted by shift(T, i) lexicographically
///           (the "sorted indices" of Algorithm 1), and
///   * N_i — the "next links": N_i[pos] is the position in I_{(i+1) % m} of
///           the string stored at position pos of I_i, and
///   * L_i — the adjacent-LCP array of Manber & Myers: L_i[pos] is the
///           circular LCP at shift i of the strings at positions pos and
///           pos + 1 of I_i (L_i[n-1] is 0 and never read).
///
/// L_i is what lets the Algorithm 2 pop loop walk a chain without reading
/// hash strings: all strings of one shift are sorted and have length m, so
/// for Q <= T_b <= T_c, LCP(Q, T_c) = min(LCP(Q, T_b), LCP(T_b, T_c)) (the
/// lower chain is the mirror case), and a chain's LCP against any probe
/// string is the running min of L_i over the positions it passes. The
/// arrays are uint16 (m caps at 4095), 2·m·n bytes, counted by SizeBytes;
/// Build derives them from the strings, I_i and N_i (see DeriveAdjacentLcp).
///
/// Build cost is one circular sort of shift 0 (O(n log n) comparisons of up
/// to m symbols, ties broken by id for determinism), then O(n) per derived
/// shift:
/// shift(T, i) equals [t_i] ++ shift(T, i+1) minus its last element, and
/// I_{i+1} already holds the strings in shift-(i+1) order, so a stable
/// counting sort of I_{i+1} on t_i reproduces the shift-i order exactly —
/// the order a sort on the pair (t_i, rank at shift i+1) gives. It takes
/// one pass per 11-bit digit of the column's value range (one for the usual
/// hash alphabets, at most three for 32-bit values), and the permutation it
/// leaves is N_i. The derived shifts thus cost O(m n) in total where
/// Theorem 3.1 charges O(m n log n) for them, and the arrays are the ones
/// the per-shift comparison sorts produced.
///
/// The low-level primitives (per-shift binary search, LCP, next links) are
/// public so that MP-LCCS-LSH (Section 4.2) can drive its multi-probe search
/// over the same arrays.
class CircularShiftArray {
 public:
  CircularShiftArray() = default;

  /// Builds the CSA over the strings.size() / m strings of length `m`
  /// stored row-major in `strings` (Algorithm 1). The vector is taken over
  /// as the index's own copy of the strings, so a caller that moves it in
  /// never holds the n·m values twice. Requires at least one string,
  /// m >= 1, and strings.size() a multiple of m.
  void Build(std::vector<HashValue> strings, size_t m);

  /// Same as above over `n` strings read from `strings`, which are copied.
  void Build(const HashValue* strings, size_t n, size_t m);

  size_t n() const { return n_; }
  size_t m() const { return m_; }
  bool empty() const { return n_ == 0; }

  /// Id of the string at position `pos` of sorted index I_shift.
  int32_t SortedId(size_t shift, size_t pos) const {
    return sorted_[shift * n_ + pos];
  }

  /// Next link: position in I_{(shift+1) % m} of the string at position
  /// `pos` of I_shift.
  int32_t NextPosition(size_t shift, size_t pos) const {
    return next_[shift * n_ + pos];
  }

  /// L_shift[pos]: circular LCP at shift `shift` of the strings at positions
  /// `pos` and `pos + 1` of I_shift (pos < n - 1).
  int32_t AdjacentLcp(size_t shift, size_t pos) const {
    return lcp_[shift * n_ + pos];
  }

  /// Pointer to the m hash values of string `id`.
  const HashValue* String(int32_t id) const {
    return data_.data() + static_cast<size_t>(id) * m_;
  }

  /// Result of locating shift(Q, shift) within the sorted index I_shift.
  struct ShiftBounds {
    int32_t pos_lo = -1;  ///< position of T_l = max{T <= Q}; -1 if Q < min
    int32_t pos_hi = 0;   ///< position of T_u = min{T > Q}; n if Q >= max
    int32_t len_lo = 0;   ///< |LCP(shift(T_l, shift), shift(Q, shift))|
    int32_t len_hi = 0;   ///< |LCP(shift(T_u, shift), shift(Q, shift))|
  };

  /// Binary search of shift(Q, shift) over positions [lo, hi] of I_shift
  /// (inclusive bounds; pass 0, n-1 for a full search). Returns the
  /// lower/upper bounding positions and their LCP lengths.
  ShiftBounds SearchShift(const HashValue* query, size_t shift, int32_t lo,
                          int32_t hi) const;

  /// Batch-friendly SearchShift entry taking the previous shift's
  /// precomputed bounds: narrows the binary search of shift `shift` through
  /// the next links of shift - 1 (Corollary 3.2) when `prev` matched at
  /// least one symbol on both sides, and falls back to a full [0, n-1]
  /// search otherwise. SearchBounds' cascade (which Search and the
  /// multi-probe scheme share) takes every shift after the first through
  /// it. Respects use_narrowing().
  ShiftBounds SearchShiftFrom(const HashValue* query, size_t shift,
                              const ShiftBounds& prev) const;

  /// LCP between shift(T_id, shift) and shift(Q, shift), capped at m.
  int32_t Lcp(int32_t id, const HashValue* query, size_t shift) const {
    return CircularLcp(String(id), query, m_, shift);
  }

  /// k-LCCS search (Algorithm 2): returns up to k distinct string ids in
  /// non-increasing order of |LCCS(T, Q)|.
  std::vector<LccsCandidate> Search(const HashValue* query, size_t k) const;

  /// Same as Search but also exposes the per-shift bounds computed during
  /// the narrowed binary-search cascade (tests and diagnostics; the
  /// multi-probe scheme reads the same bounds from SearchBounds).
  std::vector<LccsCandidate> Search(const HashValue* query, size_t k,
                                    std::vector<ShiftBounds>* state) const;

  /// Memory footprint of the index (data + sorted indices + next links +
  /// adjacent LCPs).
  size_t SizeBytes() const {
    return data_.size() * sizeof(HashValue) +
           sorted_.size() * sizeof(int32_t) + next_.size() * sizeof(int32_t) +
           lcp_.size() * sizeof(uint16_t);
  }

  /// Frees the next-link arrays (N_i: 4·m·n of the 14·m·n bytes SizeBytes
  /// counts) and disables narrowing. Next links only accelerate the
  /// binary-search cascade (Corollary 3.2); the pop loop walks L_i, which
  /// stays. A memory-tight deployment — e.g. bench/disk_store's quantized
  /// mode chasing an RSS ceiling — can drop them after Build and still
  /// answer every query exactly (the ablation equivalence property:
  /// full-range searches return identical results). The next Build
  /// restores both the links and narrowing.
  void ReleaseNextLinks();
  bool next_links_released() const { return next_released_; }

  /// Ablation switch: when disabled, Search performs a full-range binary
  /// search on every shift instead of the next-link-narrowed cascade of
  /// Corollary 3.2. Results are identical; only the query cost changes
  /// (exercised by bench/ablation_design_choices and the equivalence
  /// property test).
  void set_use_narrowing(bool enabled) { use_narrowing_ = enabled; }
  bool use_narrowing() const { return use_narrowing_; }

  /// Entry of the shared candidate priority queue of Algorithm 2, packed
  /// into one uint64 whose *natural descending order is the pop order*:
  /// larger len pops first, ties broken deterministically by smaller shift,
  /// then smaller pos, smaller probe, and downward direction — ascending
  /// tie-break fields are stored complemented so plain integer > realizes
  /// the whole five-field comparison branchlessly (the pop loop spends a
  /// meaningful share of its time in heap sift compares; a 16-byte struct
  /// with a five-branch comparator was measurably slower). Field widths cap
  /// m at 4095 and n at 2^31 - 1 — asserted where the values enter, and
  /// orders of magnitude above the paper's scales. The probe tag only breaks
  /// ties between entries of equal (len, shift, pos), and the pop loop reads
  /// no probe string, so PushBounds saturates it at kMaxProbeTag: probes 255
  /// and later share one tag. (An unsaturated tag of 256 or more would
  /// spill into the len field.)
  ///
  /// Layout (MSB to LSB): len:12 | 4095-shift:12 | (2^31-1)-pos:31 |
  /// 255-probe:8 | (dir < 0):1.
  using HeapKey = uint64_t;
  static constexpr int32_t kMaxProbeTag = 0xFF;
  static HeapKey PackHeapKey(int32_t len, int32_t shift, int32_t pos,
                             int32_t probe, int dir) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(len)) << 52) |
           ((0xFFFull - static_cast<uint32_t>(shift)) << 40) |
           ((0x7FFFFFFFull - static_cast<uint32_t>(pos)) << 9) |
           ((0xFFull - static_cast<uint32_t>(probe)) << 1) |
           (dir < 0 ? 1u : 0u);
  }
  static int32_t HeapKeyLen(HeapKey k) {
    return static_cast<int32_t>(k >> 52);
  }
  static int32_t HeapKeyShift(HeapKey k) {
    return 0xFFF - static_cast<int32_t>((k >> 40) & 0xFFFu);
  }
  static int32_t HeapKeyPos(HeapKey k) {
    return 0x7FFFFFFF - static_cast<int32_t>((k >> 9) & 0x7FFFFFFFu);
  }
  static int32_t HeapKeyProbe(HeapKey k) {
    return 0xFF - static_cast<int32_t>((k >> 1) & 0xFFu);
  }
  static int32_t HeapKeyDir(HeapKey k) { return (k & 1u) != 0 ? -1 : +1; }

  /// Reusable per-thread workspace for Search / CollectFromHeap. One scratch
  /// serves any number of consecutive queries against the same CSA without
  /// reallocating: the heap vector keeps its capacity, and the seen/visited
  /// stamp arrays are O(1) to "clear" (the stamp increments instead). The
  /// batched query engine holds one per ParallelFor chunk; sharing one
  /// scratch across threads is a race.
  struct SearchScratch {
    std::vector<ShiftBounds> state;  ///< per-shift bounds of the base search
    std::vector<HeapKey> heap;       ///< std::push_heap/pop_heap max-heap
    /// Stamps are uint8 on purpose: the pop loop's chain fast-forward does
    /// an order of magnitude more stamp lookups than anything else it
    /// touches, and the byte-dense arrays keep them cache-resident (n bytes
    /// instead of 4n). The 255-query wrap costs one refill per 255 queries.
    std::vector<uint8_t> seen;     ///< id -> stamp of the query that saw it
    std::vector<uint8_t> visited;  ///< shift*n + pos -> stamp (multi-probe)
    uint8_t stamp = 0;             ///< current query's stamp
    bool dedup_positions = false;  ///< CollectFromHeap consults `visited`

    /// Starts a new query: bumps the stamp and (re)sizes the id-dedup array.
    /// `positions` > 0 additionally sizes the frontier-position dedup array
    /// (m*n entries) and turns on the pop loop's position dedup — only the
    /// multi-probe scheme pays for either.
    void Begin(size_t n, size_t m, size_t positions);
  };

  /// Seeds `scratch->heap` with the bound entries of `b` tagged `probe`
  /// (the push_bounds step shared by Algorithm 2 and the multi-probe scheme).
  /// Tags above kMaxProbeTag are saturated to it (see PackHeapKey).
  void PushBounds(const ShiftBounds& b, size_t shift, int32_t probe,
                  SearchScratch* scratch) const;

  /// The narrowed binary-search cascade of Algorithm 2 lines 2-11: fills
  /// scratch->state with per-shift bounds of `query` and seeds the heap via
  /// PushBounds with probe tag 0. Call Begin first.
  void SearchBounds(const HashValue* query, SearchScratch* scratch) const;

  /// The frontier pop loop of Algorithm 2 lines 12-15, over every probe
  /// string that seeded the heap: appends up to `count` distinct ids to
  /// `out` in non-increasing LCP order. Entries must already be heaped
  /// (SearchBounds / PushBounds) with exact LCPs; a chain extends its LCP
  /// as the running min of L_i, so no hash string is read. With
  /// scratch->dedup_positions, frontier positions are deduplicated through
  /// scratch->visited (the redundancy control of Example 4.1); one probe's
  /// lo/hi chains never collide, so the base scheme leaves it off.
  void CollectFromHeap(size_t count, SearchScratch* scratch,
                       std::vector<LccsCandidate>* out) const;

 private:
  /// Fills I_1 .. I_{m-1} of sorted_ and all of next_ from data_ and I_0
  /// (see the .cc).
  void DeriveShiftOrders();

  /// Fills lcp_ from data_, sorted_ and next_ (see the .cc): L_0 by direct
  /// compares, every other shift from its successor's L through the next
  /// links. Asserts the order Build gives the arrays.
  void DeriveAdjacentLcp();

  size_t n_ = 0;
  size_t m_ = 0;
  bool use_narrowing_ = true;
  bool next_released_ = false;
  std::vector<HashValue> data_;  // n x m, row-major
  std::vector<int32_t> sorted_;  // m x n: I_i
  std::vector<int32_t> next_;    // m x n: N_i
  std::vector<uint16_t> lcp_;    // m x n: L_i
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_CSA_H_
