#include "baselines/lsh_forest.h"

#include <set>

#include <gtest/gtest.h>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"

namespace lccs {
namespace baselines {
namespace {

dataset::Dataset EasyClusters(uint64_t seed = 111) {
  dataset::SyntheticConfig config;
  config.n = 1500;
  config.num_queries = 15;
  config.dim = 20;
  config.num_clusters = 8;
  config.center_scale = 25.0;
  config.cluster_stddev = 0.5;
  config.noise_fraction = 0.0;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

double AverageRecall(const AnnIndex& index, const dataset::Dataset& data,
                     const dataset::GroundTruth& gt, size_t k) {
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall +=
        eval::Recall(index.Query(data.queries.Row(q), k), gt.ForQuery(q));
  }
  return recall / static_cast<double>(data.num_queries());
}

TEST(LshForestTest, HighRecallOnEasyData) {
  const auto data = EasyClusters();
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  LshForest::Params params;
  params.num_trees = 8;
  params.depth = 12;
  params.candidates = 200;
  params.w = 8.0;
  LshForest forest(lsh::FamilyKind::kRandomProjection, params);
  forest.Build(data);
  EXPECT_GT(AverageRecall(forest, data, gt, 10), 0.8);
  EXPECT_GT(forest.IndexSizeBytes(), 0u);
  EXPECT_EQ(forest.name(), "LSH-Forest");
}

TEST(LshForestTest, CandidateBudgetRespected) {
  const auto data = EasyClusters(112);
  LshForest::Params params;
  params.num_trees = 4;
  params.depth = 8;
  params.candidates = 5;
  params.w = 8.0;
  LshForest forest(lsh::FamilyKind::kRandomProjection, params);
  forest.Build(data);
  // With only 5 verified candidates, at most 5 results come back.
  const auto result = forest.Query(data.queries.Row(0), 10);
  EXPECT_LE(result.size(), 5u);
  EXPECT_GE(result.size(), 1u);
}

TEST(LshForestTest, MoreCandidatesNeverHurt) {
  const auto data = EasyClusters(113);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  LshForest::Params params;
  params.num_trees = 6;
  params.depth = 10;
  params.candidates = 10;
  params.w = 8.0;
  LshForest forest(lsh::FamilyKind::kRandomProjection, params);
  forest.Build(data);
  const double small = AverageRecall(forest, data, gt, 10);
  forest.set_candidates(500);
  const double large = AverageRecall(forest, data, gt, 10);
  EXPECT_GE(large, small);
}

TEST(LshForestTest, ResultsSortedAndDistinct) {
  const auto data = EasyClusters(114);
  LshForest::Params params;
  params.num_trees = 4;
  params.depth = 10;
  params.candidates = 100;
  params.w = 8.0;
  LshForest forest(lsh::FamilyKind::kRandomProjection, params);
  forest.Build(data);
  const auto result = forest.Query(data.queries.Row(1), 10);
  std::set<int32_t> ids;
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_TRUE(ids.insert(result[i].id).second);
    if (i > 0) {
      EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
  }
}

TEST(LshForestTest, WorksWithCrossPolytope) {
  auto data = EasyClusters(115);
  data.metric = util::Metric::kAngular;
  data.NormalizeAll();
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  LshForest::Params params;
  params.num_trees = 8;
  params.depth = 4;
  params.candidates = 200;
  LshForest forest(lsh::FamilyKind::kCrossPolytope, params);
  forest.Build(data);
  EXPECT_GT(AverageRecall(forest, data, gt, 10), 0.6);
}

}  // namespace
}  // namespace baselines
}  // namespace lccs
