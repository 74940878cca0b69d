#include "lsh/minhash.h"

#include "lsh/family_factory.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/lccs_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "util/metric.h"
#include "util/random.h"

namespace lccs {
namespace lsh {
namespace {

std::vector<float> RandomSet(size_t dim, double density, util::Rng* rng) {
  std::vector<float> v(dim, 0.0f);
  for (auto& bit : v) {
    bit = rng->UniformDouble() < density ? 1.0f : 0.0f;
  }
  return v;
}

TEST(JaccardMetricTest, KnownValues) {
  const float a[] = {1, 1, 0, 0};
  const float b[] = {1, 0, 1, 0};
  // |A ∩ B| = 1, |A ∪ B| = 3.
  EXPECT_DOUBLE_EQ(util::Distance(util::Metric::kJaccard, a, b, 4),
                   1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(util::Distance(util::Metric::kJaccard, a, a, 4), 0.0);
  const float empty[] = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(util::Distance(util::Metric::kJaccard, empty, empty, 4),
                   0.0);
  EXPECT_DOUBLE_EQ(util::Distance(util::Metric::kJaccard, a, empty, 4), 1.0);
}

TEST(MinHashTest, HashOfSetElementIsASetElement) {
  MinHashFamily family(64, 16, 7);
  util::Rng rng(8);
  const auto v = RandomSet(64, 0.2, &rng);
  std::vector<HashValue> h(16);
  family.Hash(v.data(), h.data());
  for (const HashValue value : h) {
    ASSERT_GE(value, 0);
    ASSERT_LT(value, 64);
    EXPECT_GE(v[value], 0.5f) << "minhash must pick a member of the set";
  }
}

TEST(MinHashTest, EmptySetHashesToSentinel) {
  MinHashFamily family(32, 8, 9);
  const std::vector<float> empty(32, 0.0f);
  std::vector<HashValue> h(8);
  family.Hash(empty.data(), h.data());
  for (const HashValue value : h) EXPECT_EQ(value, -1);
}

// The minimum over A ∪ B is the smaller of the minima over A and over B, so
// each function of the union hashes to what it gives A or what it gives B.
TEST(MinHashTest, UnionHashIsOneOfTheOperandHashes) {
  const size_t dim = 64, m = 12;
  MinHashFamily family(dim, m, 10);
  util::Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const auto a = RandomSet(dim, 0.3, &rng);
    const auto b = RandomSet(dim, 0.3, &rng);
    std::vector<float> both(dim);
    for (size_t j = 0; j < dim; ++j) both[j] = std::max(a[j], b[j]);
    std::vector<HashValue> ha(m), hb(m), hu(m);
    family.Hash(a.data(), ha.data());
    family.Hash(b.data(), hb.data());
    family.Hash(both.data(), hu.data());
    for (size_t f = 0; f < m; ++f) {
      EXPECT_TRUE(hu[f] == ha[f] || hu[f] == hb[f])
          << "trial=" << trial << " f=" << f;
      ASSERT_GE(ha[f], 0) << "trial=" << trial << " f=" << f;
      ASSERT_LT(ha[f], static_cast<HashValue>(dim));
      EXPECT_GE(a[ha[f]], 0.5f) << "h_f(A) must be a member of A";
    }
  }
}

TEST(MinHashTest, CollisionRateEqualsJaccardSimilarity) {
  // The defining property: Pr[h(A) = h(B)] = |A∩B| / |A∪B|.
  const size_t dim = 256;
  const size_t m = 4000;
  MinHashFamily family(dim, m, 13);
  util::Rng rng(14);
  auto a = RandomSet(dim, 0.3, &rng);
  auto b = a;
  // Mutate ~30% of b's entries to create a known overlap.
  for (size_t j = 0; j < dim; ++j) {
    if (rng.UniformDouble() < 0.3) b[j] = 1.0f - b[j];
  }
  const double dist = util::Distance(util::Metric::kJaccard, a.data(),
                                     b.data(), dim);
  std::vector<HashValue> ha(m), hb(m);
  family.Hash(a.data(), ha.data());
  family.Hash(b.data(), hb.data());
  size_t collisions = 0;
  for (size_t f = 0; f < m; ++f) collisions += (ha[f] == hb[f]);
  EXPECT_NEAR(static_cast<double>(collisions) / m, 1.0 - dist, 0.03);
}

TEST(MinHashTest, CollisionProbabilityFormula) {
  MinHashFamily family(32, 1, 15);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.25), 0.75);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(1.0), 0.0);
}

TEST(MinHashTest, LccsLshEndToEndOnJaccard) {
  // Family-independence: the whole pipeline on Jaccard document sets.
  auto data = dataset::GenerateHamming(1200, 10, 128, 10, 0.03, 17);
  data.metric = util::Metric::kJaccard;
  const auto gt = dataset::GroundTruth::Compute(data, 5);
  auto family = std::make_unique<MinHashFamily>(128, 64, 19);
  core::LccsLsh index(std::move(family), util::Metric::kJaccard);
  index.Build(data.data.data(), data.n(), data.dim());
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall += eval::Recall(index.Query(data.queries.Row(q), 5, 100),
                           gt.ForQuery(q));
  }
  recall /= static_cast<double>(data.num_queries());
  EXPECT_GT(recall, 0.6);
}

TEST(FamilyFactoryTest, MinHashWiredIn) {
  const auto family = MakeFamily(FamilyKind::kMinHash, 32, 4, 0.0, 21);
  EXPECT_EQ(family->name(), "minhash");
  EXPECT_EQ(DefaultFamilyFor(util::Metric::kJaccard), FamilyKind::kMinHash);
  EXPECT_STREQ(FamilyKindName(FamilyKind::kMinHash), "minhash");
}

}  // namespace
}  // namespace lsh
}  // namespace lccs
