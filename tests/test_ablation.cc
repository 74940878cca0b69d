// Equivalence tests for the ablation switches: disabling an optimization
// must never change *what* is returned, only how fast.

#include <memory>

#include <gtest/gtest.h>

#include "core/csa.h"
#include "core/lccs_lsh.h"
#include "dataset/synthetic.h"
#include "lsh/family_factory.h"
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

struct NarrowingCase {
  size_t n;
  size_t m;
  int alphabet;
};

class NarrowingEquivalence : public ::testing::TestWithParam<NarrowingCase> {
};

TEST_P(NarrowingEquivalence, SameCandidatesWithAndWithoutNarrowing) {
  const auto param = GetParam();
  const auto data = RandomStrings(param.n, param.m, param.alphabet, 61);
  CircularShiftArray narrowed, full;
  narrowed.Build(data.data(), param.n, param.m);
  full.Build(data.data(), param.n, param.m);
  full.set_use_narrowing(false);
  EXPECT_TRUE(narrowed.use_narrowing());
  EXPECT_FALSE(full.use_narrowing());

  util::Rng rng(62);
  std::vector<HashValue> q(param.m);
  for (int trial = 0; trial < 25; ++trial) {
    for (auto& v : q) {
      v = static_cast<HashValue>(rng.NextBounded(param.alphabet));
    }
    const auto a = narrowed.Search(q.data(), 12);
    const auto b = full.Search(q.data(), 12);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "trial " << trial << " rank " << i;
      EXPECT_EQ(a[i].len, b[i].len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NarrowingEquivalence,
                         ::testing::Values(NarrowingCase{50, 6, 2},
                                           NarrowingCase{100, 8, 3},
                                           NarrowingCase{200, 12, 4},
                                           NarrowingCase{100, 16, 2},
                                           NarrowingCase{64, 10, 8}));

TEST(SkipUnaffectedTest, RecallComparableToFullResearch) {
  // Skip-unaffected is a *heuristic* (it may miss a few candidates a full
  // re-search would surface), so we check distance quality rather than
  // id-level equality: the best verified distance must be close.
  dataset::SyntheticConfig config;
  config.n = 1500;
  config.num_queries = 15;
  config.dim = 16;
  config.num_clusters = 10;
  config.center_scale = 10.0;
  config.seed = 63;
  const auto data = dataset::GenerateClustered(config);

  auto make_index = [&](bool skip) {
    auto family = lsh::MakeFamily(lsh::FamilyKind::kRandomProjection,
                                  data.dim(), 32, 6.0, 64);
    ProbeParams probes;
    probes.num_probes = 33;
    probes.skip_unaffected = skip;
    auto index = std::make_unique<LccsLsh>(std::move(family),
                                             util::Metric::kEuclidean,
                                             probes);
    index->Build(data.data.data(), data.n(), data.dim());
    return index;
  };
  const auto skipping = make_index(true);
  const auto full = make_index(false);
  double skip_sum = 0.0, full_sum = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto a = skipping->Query(data.queries.Row(q), 5, 60);
    const auto b = full->Query(data.queries.Row(q), 5, 60);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    skip_sum += a[0].dist;
    full_sum += b[0].dist;
  }
  // Within 15% aggregate distance of the exhaustive probing variant.
  EXPECT_LE(skip_sum, full_sum * 1.15);
}

TEST(SkipUnaffectedTest, SingleProbeUnaffectedBySwitch) {
  // With one probe there is nothing to skip: both settings are identical.
  dataset::SyntheticConfig config;
  config.n = 400;
  config.num_queries = 5;
  config.dim = 8;
  config.seed = 65;
  const auto data = dataset::GenerateClustered(config);
  auto make_index = [&](bool skip) {
    auto family = lsh::MakeFamily(lsh::FamilyKind::kRandomProjection,
                                  data.dim(), 16, 6.0, 66);
    ProbeParams probes;
    probes.num_probes = 1;
    probes.skip_unaffected = skip;
    auto index = std::make_unique<LccsLsh>(std::move(family),
                                             util::Metric::kEuclidean,
                                             probes);
    index->Build(data.data.data(), data.n(), data.dim());
    return index;
  };
  const auto a = make_index(true);
  const auto b = make_index(false);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto ra = a->Query(data.queries.Row(q), 5, 30);
    const auto rb = b->Query(data.queries.Row(q), 5, 30);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
