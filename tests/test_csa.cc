#include "core/csa.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/lccs.h"
#include "csa_arrays.h"
#include "util/random.h"

namespace lccs {
namespace core {
namespace {

std::vector<HashValue> RandomStrings(size_t n, size_t m, int alphabet,
                                     uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HashValue> data(n * m);
  for (auto& v : data) {
    v = static_cast<HashValue>(rng.NextBounded(alphabet));
  }
  return data;
}

// ---------------------------------------------------------------------------
// Build invariants (Algorithm 1).

TEST(CsaBuildTest, SortedIndicesArePermutations) {
  const size_t n = 50, m = 8;
  const auto data = RandomStrings(n, m, 4, 1);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    std::set<int32_t> ids;
    for (size_t pos = 0; pos < n; ++pos) {
      ids.insert(csa.SortedId(shift, pos));
    }
    EXPECT_EQ(ids.size(), n) << "shift " << shift;
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(), static_cast<int32_t>(n - 1));
  }
}

TEST(CsaBuildTest, EveryShiftIsLexicographicallySorted) {
  const size_t n = 60, m = 10;
  const auto data = RandomStrings(n, m, 3, 2);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      const int cmp =
          CompareShifted(csa.String(csa.SortedId(shift, pos)),
                         csa.String(csa.SortedId(shift, pos + 1)), m, shift,
                         nullptr);
      EXPECT_LE(cmp, 0) << "shift " << shift << " pos " << pos;
    }
  }
}

TEST(CsaBuildTest, NextLinksPointToSameString) {
  const size_t n = 40, m = 6;
  const auto data = RandomStrings(n, m, 5, 3);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    const size_t next_shift = (shift + 1) % m;
    for (size_t pos = 0; pos < n; ++pos) {
      const int32_t link = csa.NextPosition(shift, pos);
      ASSERT_GE(link, 0);
      ASSERT_LT(link, static_cast<int32_t>(n));
      EXPECT_EQ(csa.SortedId(next_shift, link), csa.SortedId(shift, pos));
    }
  }
}

TEST(CsaBuildTest, SingleString) {
  const std::vector<HashValue> data = {3, 1, 4};
  CircularShiftArray csa;
  csa.Build(data.data(), 1, 3);
  EXPECT_EQ(csa.n(), 1u);
  for (size_t shift = 0; shift < 3; ++shift) {
    EXPECT_EQ(csa.SortedId(shift, 0), 0);
    EXPECT_EQ(csa.NextPosition(shift, 0), 0);
  }
}

TEST(CsaBuildTest, LengthOneStrings) {
  const std::vector<HashValue> data = {5, 2, 9, 2};
  CircularShiftArray csa;
  csa.Build(data.data(), 4, 1);
  // Sorted by the single symbol: 2, 2, 5, 9 (ties by id).
  EXPECT_EQ(csa.SortedId(0, 0), 1);
  EXPECT_EQ(csa.SortedId(0, 1), 3);
  EXPECT_EQ(csa.SortedId(0, 2), 0);
  EXPECT_EQ(csa.SortedId(0, 3), 2);
}

TEST(CsaBuildTest, IdenticalStringsTieBrokenById) {
  std::vector<HashValue> data;
  for (int i = 0; i < 5; ++i) {
    data.insert(data.end(), {7, 7, 7});
  }
  CircularShiftArray csa;
  csa.Build(data.data(), 5, 3);
  for (size_t shift = 0; shift < 3; ++shift) {
    for (size_t pos = 0; pos < 5; ++pos) {
      EXPECT_EQ(csa.SortedId(shift, pos), static_cast<int32_t>(pos));
    }
  }
}

TEST(CsaBuildTest, SizeBytesAccountsForAllArrays) {
  const size_t n = 20, m = 4;
  const auto data = RandomStrings(n, m, 4, 9);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // data (n*m HashValue) + sorted (m*n int32) + next (m*n int32) +
  // adjacent LCPs (m*n uint16).
  EXPECT_EQ(csa.SizeBytes(), n * m * sizeof(HashValue) +
                                 2 * m * n * sizeof(int32_t) +
                                 m * n * sizeof(uint16_t));
}

// L_i[p] must be the circular LCP at shift i of the neighbours at p and
// p + 1 of I_i, which Build derives through the next links.
void ExpectAdjacentLcpIsDirect(const CircularShiftArray& csa) {
  const size_t n = csa.n(), m = csa.m();
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      ASSERT_EQ(csa.AdjacentLcp(shift, pos),
                CircularLcp(csa.String(csa.SortedId(shift, pos)),
                            csa.String(csa.SortedId(shift, pos + 1)), m,
                            shift))
          << "n=" << n << " m=" << m << " shift=" << shift << " pos=" << pos;
    }
  }
}

void ExpectAdjacentLcpIsDirect(const std::vector<HashValue>& data, size_t n,
                               size_t m) {
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  ExpectAdjacentLcpIsDirect(csa);
}

TEST(CsaBuildTest, AdjacentLcpMatchesDirectCircularLcp) {
  // The shapes of CsaSeedSweep (test_csa_stress.cc): the same seeds and the
  // same draw order, so the same n, m, alphabets and strings.
  for (uint64_t seed = 1000; seed < 1012; ++seed) {
    util::Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      const size_t n = 4 + rng.NextBounded(120);
      const size_t m = 1 + rng.NextBounded(20);
      const int alphabet = 2 + static_cast<int>(rng.NextBounded(6));
      rng.NextBounded(n);  // the sweep's k
      std::vector<HashValue> data(n * m);
      for (auto& v : data) {
        v = static_cast<HashValue>(rng.NextBounded(alphabet));
      }
      ExpectAdjacentLcpIsDirect(data, n, m);
      for (size_t i = 0; i < m; ++i) rng.NextBounded(alphabet);  // its query
    }
  }
  // One and two strings.
  ExpectAdjacentLcpIsDirect(RandomStrings(1, 5, 3, 11), 1, 5);
  ExpectAdjacentLcpIsDirect(RandomStrings(2, 5, 3, 12), 2, 5);
  ExpectAdjacentLcpIsDirect(std::vector<HashValue>(2 * 7, 4), 2, 7);
  // Alphabet 1: every string is the same, so every entry is m.
  ExpectAdjacentLcpIsDirect(RandomStrings(30, 9, 1, 13), 30, 9);
  // All-equal non-constant strings: every entry is m too.
  std::vector<HashValue> equal;
  for (int i = 0; i < 25; ++i) equal.insert(equal.end(), {3, 1, 4, 1, 5, 9});
  ExpectAdjacentLcpIsDirect(equal, 25, 6);
  CircularShiftArray all_equal;
  all_equal.Build(equal.data(), 25, 6);
  for (size_t shift = 0; shift < 6; ++shift) {
    for (size_t pos = 0; pos + 1 < 25; ++pos) {
      EXPECT_EQ(all_equal.AdjacentLcp(shift, pos), 6);
    }
  }
  // m = 300: near-copies of one template, so LCPs run past 255.
  const size_t n = 40, m = 300;
  const auto tmpl = RandomStrings(1, m, 3, 14);
  util::Rng rng(15);
  std::vector<HashValue> near;
  for (size_t i = 0; i < n; ++i) {
    near.insert(near.end(), tmpl.begin(), tmpl.end());
    near[i * m + rng.NextBounded(m)] =
        static_cast<HashValue>(rng.NextBounded(3));
  }
  ExpectAdjacentLcpIsDirect(near, n, m);
  CircularShiftArray long_lcp;
  long_lcp.Build(near.data(), n, m);
  int32_t longest = 0;
  for (size_t pos = 0; pos + 1 < n; ++pos) {
    longest = std::max(longest, long_lcp.AdjacentLcp(0, pos));
  }
  EXPECT_GT(longest, 255);
}

// Build(vector, m) takes the strings over instead of copying them; the
// structure it builds must be byte-for-byte the one the copying overload
// builds from the same strings.
void ExpectOwningBuildMatchesCopy(const std::vector<HashValue>& data,
                                  size_t n, size_t m) {
  CircularShiftArray copied;
  copied.Build(data.data(), n, m);
  CircularShiftArray owned;
  owned.Build(std::vector<HashValue>(data), m);
  ASSERT_EQ(owned.n(), n);
  ASSERT_EQ(owned.m(), m);
  EXPECT_EQ(CsaArrays(owned), CsaArrays(copied))
      << "n=" << n << " m=" << m;
}

TEST(CsaBuildTest, OwningBuildIsByteIdenticalToCopyingBuild) {
  // The shapes of CsaSeedSweep, drawn as AdjacentLcpMatchesDirectCircularLcp
  // draws them.
  for (uint64_t seed = 1000; seed < 1012; ++seed) {
    util::Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      const size_t n = 4 + rng.NextBounded(120);
      const size_t m = 1 + rng.NextBounded(20);
      const int alphabet = 2 + static_cast<int>(rng.NextBounded(6));
      rng.NextBounded(n);  // the sweep's k
      std::vector<HashValue> data(n * m);
      for (auto& v : data) {
        v = static_cast<HashValue>(rng.NextBounded(alphabet));
      }
      ExpectOwningBuildMatchesCopy(data, n, m);
      for (size_t i = 0; i < m; ++i) rng.NextBounded(alphabet);  // its query
    }
  }
  // One string, all-equal strings, and alphabet 1.
  ExpectOwningBuildMatchesCopy(RandomStrings(1, 5, 3, 11), 1, 5);
  std::vector<HashValue> equal;
  for (int i = 0; i < 25; ++i) equal.insert(equal.end(), {3, 1, 4, 1, 5, 9});
  ExpectOwningBuildMatchesCopy(equal, 25, 6);
  ExpectOwningBuildMatchesCopy(RandomStrings(30, 9, 1, 13), 30, 9);
}

// Build sorts only shift 0 with a comparator and derives every other I_i
// from I_{(i+1) % m}. Each I_i must be exactly what a comparison sort of the
// ids by (rotation i, id) gives, and each N_i the inverse lookup of I_i's
// ids in I_{(i+1) % m}.
void ExpectDerivedOrdersMatchReferenceSort(const std::vector<HashValue>& data,
                                           size_t n, size_t m) {
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::vector<int32_t> expected(n);
  for (size_t shift = 0; shift < m; ++shift) {
    std::iota(expected.begin(), expected.end(), 0);
    std::sort(expected.begin(), expected.end(), [&](int32_t a, int32_t b) {
      const int cmp = CompareShifted(data.data() + a * m, data.data() + b * m,
                                     m, shift, nullptr);
      return cmp != 0 ? cmp < 0 : a < b;
    });
    for (size_t pos = 0; pos < n; ++pos) {
      ASSERT_EQ(csa.SortedId(shift, pos), expected[pos])
          << "n=" << n << " m=" << m << " shift=" << shift << " pos=" << pos;
    }
  }
  std::vector<int32_t> rank(n);
  for (size_t shift = 0; shift < m; ++shift) {
    const size_t next = (shift + 1) % m;
    for (size_t pos = 0; pos < n; ++pos) {
      rank[csa.SortedId(next, pos)] = static_cast<int32_t>(pos);
    }
    for (size_t pos = 0; pos < n; ++pos) {
      ASSERT_EQ(csa.NextPosition(shift, pos), rank[csa.SortedId(shift, pos)])
          << "n=" << n << " m=" << m << " shift=" << shift << " pos=" << pos;
    }
  }
}

// Strings over `symbols`, drawn uniformly.
std::vector<HashValue> StringsOver(const std::vector<HashValue>& symbols,
                                   size_t n, size_t m, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HashValue> data(n * m);
  for (auto& v : data) v = symbols[rng.NextBounded(symbols.size())];
  return data;
}

TEST(CsaBuildTest, DerivedOrdersMatchReferenceSort) {
  // The shapes of CsaSeedSweep, drawn as AdjacentLcpMatchesDirectCircularLcp
  // draws them.
  for (uint64_t seed = 1000; seed < 1012; ++seed) {
    util::Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      const size_t n = 4 + rng.NextBounded(120);
      const size_t m = 1 + rng.NextBounded(20);
      const int alphabet = 2 + static_cast<int>(rng.NextBounded(6));
      rng.NextBounded(n);  // the sweep's k
      std::vector<HashValue> data(n * m);
      for (auto& v : data) {
        v = static_cast<HashValue>(rng.NextBounded(alphabet));
      }
      ExpectDerivedOrdersMatchReferenceSort(data, n, m);
      for (size_t i = 0; i < m; ++i) rng.NextBounded(alphabet);  // its query
    }
  }
  // One string, length-one strings, and alphabet 1.
  ExpectDerivedOrdersMatchReferenceSort(RandomStrings(1, 5, 3, 21), 1, 5);
  ExpectDerivedOrdersMatchReferenceSort(RandomStrings(40, 1, 6, 22), 40, 1);
  ExpectDerivedOrdersMatchReferenceSort(RandomStrings(30, 9, 1, 23), 30, 9);
  // Negative symbols next to non-negative ones.
  ExpectDerivedOrdersMatchReferenceSort(
      StringsOver({-3, -2, -1, 0, 1, 2}, 200, 7, 24), 200, 7);
  // The extremes of int32 in one column.
  const HashValue kMin = std::numeric_limits<int32_t>::min();
  const HashValue kMax = std::numeric_limits<int32_t>::max();
  ExpectDerivedOrdersMatchReferenceSort(StringsOver({kMin, kMax}, 150, 6, 25),
                                        150, 6);
  ExpectDerivedOrdersMatchReferenceSort(
      StringsOver({kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax}, 300, 8, 26), 300,
      8);
  // Column ranges at a digit boundary: 2047 fits one 11-bit digit, 2048
  // takes a second.
  ExpectDerivedOrdersMatchReferenceSort(StringsOver({-5, 0, 2042}, 200, 5, 27),
                                        200, 5);
  ExpectDerivedOrdersMatchReferenceSort(StringsOver({-5, 0, 2043}, 200, 5, 28),
                                        200, 5);
  // Full-range random 32-bit columns (every digit pass), with duplicate
  // strings mixed in so ties still fall back to id.
  util::Rng rng(29);
  const size_t n = 500, m = 6;
  std::vector<HashValue> full(n * m);
  for (auto& v : full) {
    v = static_cast<HashValue>(static_cast<uint32_t>(rng.NextU64()));
  }
  for (size_t i = 0; i < 50; ++i) {
    const size_t src = rng.NextBounded(n), dst = rng.NextBounded(n);
    std::copy(full.begin() + src * m, full.begin() + (src + 1) * m,
              full.begin() + dst * m);
  }
  ExpectDerivedOrdersMatchReferenceSort(full, n, m);
  // A 2^15-symbol alphabet: two digit passes, the second under 11 bits.
  ExpectDerivedOrdersMatchReferenceSort(RandomStrings(400, 12, 1 << 15, 30),
                                        400, 12);
}

// ---------------------------------------------------------------------------
// SearchShift (binary search with LCP).

TEST(CsaSearchShiftTest, BoundsBracketTheQuery) {
  const size_t n = 64, m = 6;
  const auto data = RandomStrings(n, m, 3, 4);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<HashValue> q(m);
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
    for (size_t shift = 0; shift < m; ++shift) {
      const auto b =
          csa.SearchShift(q.data(), shift, 0, static_cast<int32_t>(n) - 1);
      EXPECT_EQ(b.pos_hi, b.pos_lo + 1);
      if (b.pos_lo >= 0) {
        // T_l <= Q.
        EXPECT_LE(CompareShifted(csa.String(csa.SortedId(shift, b.pos_lo)),
                                 q.data(), m, shift, nullptr),
                  0);
        EXPECT_EQ(b.len_lo,
                  csa.Lcp(csa.SortedId(shift, b.pos_lo), q.data(), shift));
      }
      if (b.pos_hi < static_cast<int32_t>(n)) {
        // T_u > Q.
        EXPECT_GT(CompareShifted(csa.String(csa.SortedId(shift, b.pos_hi)),
                                 q.data(), m, shift, nullptr),
                  0);
        EXPECT_EQ(b.len_hi,
                  csa.Lcp(csa.SortedId(shift, b.pos_hi), q.data(), shift));
      }
    }
  }
}

TEST(CsaSearchShiftTest, QueryEqualToAStringLandsOnIt) {
  const size_t n = 32, m = 5;
  auto data = RandomStrings(n, m, 6, 6);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // Use string 7 itself as the query: the lower bound must have LCP m.
  const std::vector<HashValue> q(csa.String(7), csa.String(7) + m);
  const auto b = csa.SearchShift(q.data(), 0, 0, static_cast<int32_t>(n) - 1);
  ASSERT_GE(b.pos_lo, 0);
  EXPECT_EQ(b.len_lo, static_cast<int32_t>(m));
}

// ---------------------------------------------------------------------------
// k-LCCS search (Algorithm 2) vs the brute-force oracle — the core
// correctness property of the whole paper.

struct CsaSearchCase {
  size_t n;
  size_t m;
  int alphabet;
  size_t k;
};

class CsaSearchOracle : public ::testing::TestWithParam<CsaSearchCase> {};

TEST_P(CsaSearchOracle, TopKLccsLengthsMatchBruteForce) {
  const auto param = GetParam();
  const auto data = RandomStrings(param.n, param.m, param.alphabet, 7);
  CircularShiftArray csa;
  csa.Build(data.data(), param.n, param.m);
  util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HashValue> q(param.m);
    for (auto& v : q) {
      v = static_cast<HashValue>(rng.NextBounded(param.alphabet));
    }
    const auto got = csa.Search(q.data(), param.k);
    const auto expected =
        BruteForceKLccs(data.data(), param.n, param.m, q.data(), param.k);
    ASSERT_EQ(got.size(), expected.size());
    // Ids may differ under LCCS-length ties, but the multiset of lengths is
    // uniquely determined — compare lengths position by position.
    for (size_t i = 0; i < got.size(); ++i) {
      const int32_t got_len =
          LccsLength(data.data() + got[i].id * param.m, q.data(), param.m);
      const int32_t expected_len = LccsLength(
          data.data() + expected[i] * param.m, q.data(), param.m);
      EXPECT_EQ(got_len, expected_len)
          << "rank " << i << " trial " << trial;
      // The candidate's reported len must equal its true LCCS length.
      EXPECT_EQ(got[i].len, got_len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsaSearchOracle,
    ::testing::Values(CsaSearchCase{8, 4, 2, 3}, CsaSearchCase{32, 6, 2, 5},
                      CsaSearchCase{32, 6, 4, 5}, CsaSearchCase{64, 8, 3, 8},
                      CsaSearchCase{100, 12, 3, 10},
                      CsaSearchCase{100, 12, 8, 10},
                      CsaSearchCase{200, 16, 4, 20},
                      CsaSearchCase{50, 5, 2, 50},   // k == n
                      CsaSearchCase{30, 10, 16, 5},  // sparse collisions
                      CsaSearchCase{128, 24, 2, 12},
                      CsaSearchCase{48, 300, 2, 12}));  // LCPs past 255

TEST(CsaSearchTest, ReturnsDistinctIds) {
  const size_t n = 40, m = 8;
  const auto data = RandomStrings(n, m, 2, 10);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q(m, 1);
  const auto result = csa.Search(q.data(), 20);
  std::set<int32_t> ids;
  for (const auto& c : result) ids.insert(c.id);
  EXPECT_EQ(ids.size(), result.size());
}

TEST(CsaSearchTest, KLargerThanNReturnsAllStrings) {
  const size_t n = 15, m = 4;
  const auto data = RandomStrings(n, m, 3, 11);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q = {0, 1, 2, 0};
  const auto result = csa.Search(q.data(), 100);
  EXPECT_EQ(result.size(), n);
}

TEST(CsaSearchTest, LengthsAreNonIncreasing) {
  const size_t n = 80, m = 10;
  const auto data = RandomStrings(n, m, 3, 12);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  util::Rng rng(13);
  std::vector<HashValue> q(m);
  for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
  const auto result = csa.Search(q.data(), 30);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].len, result[i].len);
  }
}

TEST(CsaSearchTest, ExactMatchIsFirstCandidate) {
  const size_t n = 50, m = 8;
  auto data = RandomStrings(n, m, 4, 14);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // Query identical to string 23.
  const std::vector<HashValue> q(csa.String(23), csa.String(23) + m);
  const auto result = csa.Search(q.data(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].len, static_cast<int32_t>(m));
  // The returned string must be *some* full-length match (ties possible).
  EXPECT_EQ(LccsLength(csa.String(result[0].id), q.data(), m),
            static_cast<int32_t>(m));
}

TEST(CsaSearchTest, StateHasOneEntryPerShift) {
  const size_t n = 30, m = 7;
  const auto data = RandomStrings(n, m, 3, 15);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q(m, 0);
  std::vector<CircularShiftArray::ShiftBounds> state;
  csa.Search(q.data(), 5, &state);
  EXPECT_EQ(state.size(), m);
  for (const auto& b : state) {
    EXPECT_EQ(b.pos_hi, b.pos_lo + 1);
  }
}

// Degenerate: all strings identical and equal to the query.
TEST(CsaSearchTest, AllIdenticalStrings) {
  std::vector<HashValue> data;
  for (int i = 0; i < 10; ++i) data.insert(data.end(), {4, 4, 4, 4});
  CircularShiftArray csa;
  csa.Build(data.data(), 10, 4);
  const std::vector<HashValue> q = {4, 4, 4, 4};
  const auto result = csa.Search(q.data(), 3);
  ASSERT_EQ(result.size(), 3u);
  for (const auto& c : result) {
    EXPECT_EQ(c.len, 4);
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
