#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "baselines/c2lsh.h"
#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "baselines/qalsh.h"
#include "baselines/srs.h"
#include "baselines/static_lsh.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"

namespace lccs {
namespace baselines {
namespace {

dataset::Dataset EasyClusters(util::Metric metric, uint64_t seed = 91) {
  dataset::SyntheticConfig config;
  config.n = 1500;
  config.num_queries = 15;
  config.dim = 20;
  config.num_clusters = 8;
  config.center_scale = 25.0;
  config.cluster_stddev = 0.5;
  config.noise_fraction = 0.0;
  config.metric = metric;
  config.normalize = metric == util::Metric::kAngular;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

double AverageRecall(const AnnIndex& index, const dataset::Dataset& data,
                     const dataset::GroundTruth& gt, size_t k) {
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall += eval::Recall(index.Query(data.queries.Row(q), k),
                           gt.ForQuery(q));
  }
  return recall / static_cast<double>(data.num_queries());
}

// ---------------------------------------------------------------------------
// LinearScan: the exactness oracle.

TEST(LinearScanTest, MatchesGroundTruthExactly) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  LinearScan scan;
  scan.Build(data);
  EXPECT_DOUBLE_EQ(AverageRecall(scan, data, gt, 10), 1.0);
  EXPECT_EQ(scan.IndexSizeBytes(), 0u);
  EXPECT_EQ(scan.name(), "LinearScan");
}

TEST(LinearScanTest, AngularMetricSupported) {
  const auto data = EasyClusters(util::Metric::kAngular);
  const auto gt = dataset::GroundTruth::Compute(data, 5);
  LinearScan scan;
  scan.Build(data);
  EXPECT_DOUBLE_EQ(AverageRecall(scan, data, gt, 5), 1.0);
}

// ---------------------------------------------------------------------------
// StaticLsh: E2LSH / Multi-Probe LSH / FALCONN configurations.

TEST(StaticLshTest, E2LshHighRecallOnEasyData) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  StaticLsh::Params params;
  params.k_funcs = 4;
  params.num_tables = 16;
  params.w = 8.0;
  StaticLsh index("E2LSH", lsh::FamilyKind::kRandomProjection, params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.8);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
}

TEST(StaticLshTest, FalconnStyleHighRecallAngular) {
  const auto data = EasyClusters(util::Metric::kAngular);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  StaticLsh::Params params;
  params.k_funcs = 1;
  params.num_tables = 16;
  params.num_probes = 8;
  StaticLsh index("FALCONN", lsh::FamilyKind::kCrossPolytope, params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.8);
}

TEST(StaticLshTest, ProbingExpandsCandidates) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 92);
  StaticLsh::Params params;
  params.k_funcs = 10;  // deliberately selective: base buckets are tiny
  params.num_tables = 4;
  params.w = 4.0;
  StaticLsh index("Multi-Probe LSH", lsh::FamilyKind::kRandomProjection,
                  params);
  index.Build(data);
  index.Query(data.queries.Row(0), 10);
  const size_t base_candidates = index.last_candidate_count();
  index.set_num_probes(64);
  index.Query(data.queries.Row(0), 10);
  const size_t probed_candidates = index.last_candidate_count();
  EXPECT_GE(probed_candidates, base_candidates);
}

TEST(StaticLshTest, MoreProbesImproveRecallWithFewTables) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 93);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  StaticLsh::Params params;
  params.k_funcs = 8;
  params.num_tables = 4;
  params.w = 6.0;
  StaticLsh index("Multi-Probe LSH", lsh::FamilyKind::kRandomProjection,
                  params);
  index.Build(data);
  const double base = AverageRecall(index, data, gt, 10);
  index.set_num_probes(128);
  const double probed = AverageRecall(index, data, gt, 10);
  EXPECT_GE(probed, base);
}

TEST(StaticLshTest, DeterministicAcrossRebuilds) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 94);
  StaticLsh::Params params;
  params.k_funcs = 4;
  params.num_tables = 8;
  params.w = 8.0;
  StaticLsh a("E2LSH", lsh::FamilyKind::kRandomProjection, params);
  StaticLsh b("E2LSH", lsh::FamilyKind::kRandomProjection, params);
  a.Build(data);
  b.Build(data);
  for (size_t q = 0; q < 5; ++q) {
    const auto ra = a.Query(data.queries.Row(q), 5);
    const auto rb = b.Query(data.queries.Row(q), 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

// ---------------------------------------------------------------------------
// C2LSH.

TEST(C2LshTest, ThresholdComputation) {
  C2Lsh::Params params;
  params.num_functions = 100;
  params.alpha = 0.55;
  C2Lsh index(params);
  EXPECT_EQ(index.collision_threshold(), 55u);
}

TEST(C2LshTest, HighRecallOnEasyDataEuclidean) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 95);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  C2Lsh::Params params;
  params.num_functions = 64;
  params.w = 2.0;
  params.extra_candidates = 100;
  C2Lsh index(params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.8);
}

TEST(C2LshTest, AngularPathWorks) {
  const auto data = EasyClusters(util::Metric::kAngular, 96);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  C2Lsh::Params params;
  params.num_functions = 64;
  params.alpha = 0.3;  // cross-polytope collisions are rarer per function
  C2Lsh index(params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.5);
}

TEST(C2LshTest, BudgetBoundsWork) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 97);
  C2Lsh::Params params;
  params.num_functions = 32;
  params.w = 2.0;
  params.extra_candidates = 5;  // very tight budget must still return k
  C2Lsh index(params);
  index.Build(data);
  const auto result = index.Query(data.queries.Row(0), 10);
  EXPECT_LE(result.size(), 10u);
  EXPECT_GE(result.size(), 1u);
}

// ---------------------------------------------------------------------------
// QALSH.

TEST(QaLshTest, HighRecallOnEasyData) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 98);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  QaLsh::Params params;
  params.num_functions = 64;
  params.w = 1.0;
  QaLsh index(params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.8);
}

TEST(QaLshTest, FindsExactNnOfDataPointQuery) {
  // Querying with a database point must return that point first: its
  // projections coincide on every function, so it reaches the collision
  // threshold in the first rounds.
  auto data = EasyClusters(util::Metric::kEuclidean, 99);
  for (size_t j = 0; j < data.dim(); ++j) {
    data.queries.At(0, j) = data.data.At(77, j);
  }
  QaLsh::Params params;
  params.num_functions = 48;
  QaLsh index(params);
  index.Build(data);
  const auto result = index.Query(data.queries.Row(0), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 77);
  EXPECT_NEAR(result[0].dist, 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
// SRS.

TEST(SrsTest, HighRecallOnEasyData) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 100);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  Srs::Params params;
  params.projected_dim = 6;
  params.candidate_fraction = 0.3;
  params.approx_ratio = 1.2;  // near-exact regime: high recall expected
  params.early_stop_confidence = 0.95;
  Srs index(params);
  index.Build(data);
  EXPECT_GT(AverageRecall(index, data, gt, 10), 0.8);
}

TEST(SrsTest, LargerApproxRatioStopsEarlier) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 100);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  Srs::Params loose;
  loose.approx_ratio = 3.0;
  Srs::Params tight = loose;
  tight.approx_ratio = 1.1;
  Srs loose_index(loose), tight_index(tight);
  loose_index.Build(data);
  tight_index.Build(data);
  // A larger c may only lower recall (it licenses earlier termination).
  EXPECT_LE(AverageRecall(loose_index, data, gt, 10),
            AverageRecall(tight_index, data, gt, 10) + 1e-9);
}

TEST(SrsTest, ProjectionHasRequestedDim) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 101);
  Srs::Params params;
  params.projected_dim = 7;
  Srs index(params);
  index.Build(data);
  std::vector<float> out(7, 0.0f);
  index.Project(data.queries.Row(0), out.data());
  int nonzero = 0;
  for (float v : out) nonzero += (v != 0.0f);
  EXPECT_EQ(nonzero, 7);
}

TEST(SrsTest, TightBudgetStillReturnsResults) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 102);
  Srs::Params params;
  params.candidate_fraction = 0.005;
  Srs index(params);
  index.Build(data);
  const auto result = index.Query(data.queries.Row(0), 5);
  EXPECT_GE(result.size(), 1u);
}

// ---------------------------------------------------------------------------
// LCCS adapter.

TEST(LccsAdapterTest, NameReflectsProbes) {
  LccsLshIndex::Params params;
  params.num_probes = 1;
  EXPECT_EQ(LccsLshIndex(params).name(), "LCCS-LSH");
  params.num_probes = 9;
  EXPECT_EQ(LccsLshIndex(params).name(), "MP-LCCS-LSH");
}

TEST(LccsAdapterTest, HighRecallBothMetrics) {
  for (const auto metric :
       {util::Metric::kEuclidean, util::Metric::kAngular}) {
    const auto data = EasyClusters(metric, 103);
    const auto gt = dataset::GroundTruth::Compute(data, 10);
    LccsLshIndex::Params params;
    params.m = 48;
    params.lambda = 150;
    params.w = 8.0;
    LccsLshIndex index(params);
    index.Build(data);
    EXPECT_GT(AverageRecall(index, data, gt, 10), 0.75)
        << util::MetricName(metric);
  }
}

TEST(LccsAdapterTest, SettersApplyWithoutRebuild) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 104);
  LccsLshIndex::Params params;
  params.m = 32;
  params.lambda = 10;
  LccsLshIndex index(params);
  index.Build(data);
  const auto before = index.Query(data.queries.Row(0), 5);
  index.set_lambda(500);
  index.set_num_probes(33);
  const auto after = index.Query(data.queries.Row(0), 5);
  EXPECT_EQ(before.size(), after.size());
  // More candidates can only improve (or tie) the best distance found.
  EXPECT_LE(after[0].dist, before[0].dist + 1e-12);
}

}  // namespace
}  // namespace baselines
}  // namespace lccs
