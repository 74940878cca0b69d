// Randomized stress tests for the CSA: many independent seeds, adversarial
// alphabets (heavy duplication, near-constant strings), and consistency of
// the narrowed-search state against first-principles recomputation. These
// complement test_csa.cc's targeted cases with breadth.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/csa.h"
#include "core/lccs.h"
#include "util/random.h"

namespace lccs {
namespace core {
namespace {

std::vector<HashValue> RandomStrings(size_t n, size_t m, int alphabet,
                                     util::Rng* rng) {
  std::vector<HashValue> data(n * m);
  for (auto& v : data) {
    v = static_cast<HashValue>(rng->NextBounded(alphabet));
  }
  return data;
}

class CsaSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsaSeedSweep, OracleAgreementAcrossShapes) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    const size_t n = 4 + rng.NextBounded(120);
    const size_t m = 1 + rng.NextBounded(20);
    const int alphabet = 2 + static_cast<int>(rng.NextBounded(6));
    const size_t k = 1 + rng.NextBounded(n);
    const auto data = RandomStrings(n, m, alphabet, &rng);
    CircularShiftArray csa;
    csa.Build(data.data(), n, m);

    std::vector<HashValue> q(m);
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(alphabet));
    const auto got = csa.Search(q.data(), k);
    const auto expected =
        BruteForceKLccs(data.data(), n, m, q.data(), k);
    ASSERT_EQ(got.size(), expected.size())
        << "n=" << n << " m=" << m << " k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(LccsLength(data.data() + got[i].id * m, q.data(), m),
                LccsLength(data.data() + expected[i] * m, q.data(), m))
          << "n=" << n << " m=" << m << " k=" << k << " rank=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsaSeedSweep,
                         ::testing::Range<uint64_t>(1000, 1012));

TEST(CsaStressTest, HeavilyDuplicatedStrings) {
  // 90% of the strings are copies of a handful of templates: exercises tie
  // handling in the derived sort orders and in the binary search.
  util::Rng rng(77);
  const size_t n = 150, m = 8;
  std::vector<std::vector<HashValue>> templates(4,
                                                std::vector<HashValue>(m));
  for (auto& t : templates) {
    for (auto& v : t) v = static_cast<HashValue>(rng.NextBounded(3));
  }
  std::vector<HashValue> data;
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble() < 0.9) {
      const auto& t = templates[rng.NextBounded(templates.size())];
      data.insert(data.end(), t.begin(), t.end());
    } else {
      for (size_t j = 0; j < m; ++j) {
        data.push_back(static_cast<HashValue>(rng.NextBounded(3)));
      }
    }
  }
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HashValue> q(m);
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
    const size_t k = 1 + rng.NextBounded(30);
    const auto got = csa.Search(q.data(), k);
    const auto expected = BruteForceKLccs(data.data(), n, m, q.data(), k);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(LccsLength(data.data() + got[i].id * m, q.data(), m),
                LccsLength(data.data() + expected[i] * m, q.data(), m));
    }
  }
}

TEST(CsaStressTest, ConstantStringsWithOneOutlier) {
  const size_t n = 40, m = 6;
  std::vector<HashValue> data(n * m, 5);
  // One string differs in a single position.
  data[17 * m + 3] = 9;
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // Query equal to the constant string: outlier must rank last.
  const std::vector<HashValue> q(m, 5);
  const auto all = csa.Search(q.data(), n);
  ASSERT_EQ(all.size(), n);
  EXPECT_EQ(all.back().id, 17);
  EXPECT_LT(all.back().len, static_cast<int32_t>(m));
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_EQ(all[i].len, static_cast<int32_t>(m));
  }
}

TEST(CsaStressTest, StateBoundsMatchFreshBinarySearch) {
  // The narrowed cascade must land on exactly the bounds a from-scratch
  // full-range search finds, for every shift (this is Corollary 3.2 made
  // executable).
  util::Rng rng(177);
  const size_t n = 90, m = 12;
  const auto data = RandomStrings(n, m, 3, &rng);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::vector<HashValue> q(m);
  for (int trial = 0; trial < 30; ++trial) {
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
    std::vector<CircularShiftArray::ShiftBounds> state;
    csa.Search(q.data(), 3, &state);
    for (size_t shift = 0; shift < m; ++shift) {
      const auto fresh =
          csa.SearchShift(q.data(), shift, 0, static_cast<int32_t>(n) - 1);
      EXPECT_EQ(state[shift].pos_lo, fresh.pos_lo) << "shift " << shift;
      EXPECT_EQ(state[shift].pos_hi, fresh.pos_hi) << "shift " << shift;
      EXPECT_EQ(state[shift].len_lo, fresh.len_lo) << "shift " << shift;
      EXPECT_EQ(state[shift].len_hi, fresh.len_hi) << "shift " << shift;
    }
  }
}

TEST(CsaStressTest, LargeAlphabetSparseCollisions) {
  // With a huge alphabet almost nothing matches: every LCCS is 0 or 1 and
  // the search must still return exactly k distinct ids.
  util::Rng rng(277);
  const size_t n = 200, m = 10;
  const auto data = RandomStrings(n, m, 1 << 20, &rng);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::vector<HashValue> q(m);
  for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(1 << 20));
  const auto got = csa.Search(q.data(), 25);
  ASSERT_EQ(got.size(), 25u);
  std::set<int32_t> ids;
  for (const auto& c : got) {
    ids.insert(c.id);
    EXPECT_EQ(c.len, LccsLength(data.data() + c.id * m, q.data(), m));
  }
  EXPECT_EQ(ids.size(), 25u);
}

TEST(CsaStressTest, NegativeHashValuesSupported) {
  // Random projection buckets are signed; the CSA must order them correctly.
  util::Rng rng(377);
  const size_t n = 80, m = 8;
  std::vector<HashValue> data(n * m);
  for (auto& v : data) {
    v = static_cast<HashValue>(rng.UniformInt(-50, 50));
  }
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::vector<HashValue> q(m);
  for (auto& v : q) v = static_cast<HashValue>(rng.UniformInt(-50, 50));
  const auto got = csa.Search(q.data(), 10);
  const auto expected = BruteForceKLccs(data.data(), n, m, q.data(), 10);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(LccsLength(data.data() + got[i].id * m, q.data(), m),
              LccsLength(data.data() + expected[i] * m, q.data(), m));
  }
}

// The pop loop with the chain LCP measured by comparing hash strings
// against the entry's probe, as Algorithm 2 states it — the reference the
// adjacent-LCP walk must reproduce entry for entry. Same pop order, same
// fast-forward over seen ids and visited positions, same run extension.
std::vector<LccsCandidate> StringCompareDrain(
    const CircularShiftArray& csa,
    const std::vector<std::vector<HashValue>>& probes,
    std::vector<CircularShiftArray::HeapKey> heap, size_t count) {
  using Csa = CircularShiftArray;
  const auto n = static_cast<int32_t>(csa.n());
  const size_t m = csa.m();
  std::vector<char> seen(csa.n(), 0), visited(m * csa.n(), 0);
  std::vector<LccsCandidate> out;
  std::make_heap(heap.begin(), heap.end());
  while (out.size() < count && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const Csa::HeapKey key = heap.back();
    heap.pop_back();
    const int32_t len = Csa::HeapKeyLen(key);
    const int32_t shift = Csa::HeapKeyShift(key);
    const int32_t dir = Csa::HeapKeyDir(key);
    const HashValue* probe = probes[Csa::HeapKeyProbe(key)].data();
    const auto at = [&](int32_t pos) -> char& {
      return visited[static_cast<size_t>(shift) * csa.n() + pos];
    };
    const int32_t pos = Csa::HeapKeyPos(key);
    if (at(pos)) continue;
    at(pos) = 1;
    const int32_t id = csa.SortedId(shift, pos);
    if (!seen[id]) {
      seen[id] = 1;
      out.push_back({id, len});
    }
    for (int32_t npos = pos + dir; npos >= 0 && npos < n; npos += dir) {
      const int32_t nid = csa.SortedId(shift, npos);
      if (at(npos) || seen[nid]) continue;
      const int32_t nlen = csa.Lcp(nid, probe, shift);
      if (nlen != len || out.size() >= count) {
        heap.push_back(Csa::PackHeapKey(nlen, shift, npos,
                                        Csa::HeapKeyProbe(key), dir));
        std::push_heap(heap.begin(), heap.end());
        break;
      }
      at(npos) = 1;
      seen[nid] = 1;
      out.push_back({nid, nlen});
    }
  }
  return out;
}

TEST(CsaStressTest, MultiProbeDrainMatchesStringCompareWalk) {
  // Several probes feed one heap, so chains cross positions other probes
  // consumed: the adjacent-LCP walk must lower its running LCP over those
  // skipped positions exactly as a string compare would see it.
  util::Rng rng(477);
  for (int round = 0; round < 12; ++round) {
    const size_t n = 20 + rng.NextBounded(150);
    const size_t m = 2 + rng.NextBounded(16);
    const int alphabet = 2 + static_cast<int>(rng.NextBounded(4));
    const auto data = RandomStrings(n, m, alphabet, &rng);
    CircularShiftArray csa;
    csa.Build(data.data(), n, m);
    std::vector<std::vector<HashValue>> probes(1 + rng.NextBounded(8),
                                               std::vector<HashValue>(m));
    for (auto& v : probes[0]) {
      v = static_cast<HashValue>(rng.NextBounded(alphabet));
    }
    CircularShiftArray::SearchScratch scratch;
    scratch.Begin(n, m, m * n);
    csa.SearchBounds(probes[0].data(), &scratch);
    for (size_t t = 1; t < probes.size(); ++t) {
      probes[t] = probes[0];
      probes[t][rng.NextBounded(m)] =
          static_cast<HashValue>(rng.NextBounded(alphabet));
      for (size_t shift = 0; shift < m; ++shift) {
        if (rng.NextBounded(2) == 0) continue;  // an unaffected shift
        csa.PushBounds(
            csa.SearchShift(probes[t].data(), shift, 0,
                            static_cast<int32_t>(n) - 1),
            shift, static_cast<int32_t>(t), &scratch);
      }
    }
    const size_t count = 1 + rng.NextBounded(n);
    const auto expected = StringCompareDrain(csa, probes, scratch.heap, count);
    std::vector<LccsCandidate> got;
    csa.CollectFromHeap(count, &scratch, &got);
    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "round " << round << " i " << i;
      EXPECT_EQ(got[i].len, expected[i].len)
          << "round " << round << " i " << i;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
