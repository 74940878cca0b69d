#include "core/lccs_lsh.h"

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "lsh/family_factory.h"

namespace lccs {
namespace core {
namespace {

dataset::Dataset MediumClusters(util::Metric metric, uint64_t seed = 81) {
  dataset::SyntheticConfig config;
  config.n = 2000;
  config.num_queries = 20;
  config.dim = 24;
  config.num_clusters = 15;
  config.center_scale = 8.0;
  config.cluster_stddev = 1.0;
  config.noise_fraction = 0.05;
  config.metric = metric;
  config.normalize = metric == util::Metric::kAngular;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

std::unique_ptr<LccsLsh> BuildMp(const dataset::Dataset& data, size_t m,
                                   size_t probes, double w = 6.0) {
  auto family = lsh::MakeFamily(lsh::DefaultFamilyFor(data.metric),
                                data.dim(), m, w, 555);
  ProbeParams params;
  params.num_probes = probes;
  auto index =
      std::make_unique<LccsLsh>(std::move(family), data.metric, params);
  index->Build(data.data.data(), data.n(), data.dim());
  return index;
}

TEST(MpLccsLshTest, SingleProbeMatchesBaseScheme) {
  const auto data = MediumClusters(util::Metric::kEuclidean);
  const auto mp = BuildMp(data, 32, 1);
  // With 1 probe the scheme's search is exactly Algorithm 2 over H(q):
  // the same candidates with the same lengths, in the same order.
  std::vector<HashValue> hq(mp->m());
  for (size_t q = 0; q < 5; ++q) {
    mp->family().Hash(data.queries.Row(q), hq.data());
    const auto base = mp->csa().Search(hq.data(), 40);  // Algorithm 2
    const auto multi = mp->Candidates(data.queries.Row(q), 40);
    ASSERT_EQ(base.size(), multi.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].id, multi[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(base[i].len, multi[i].len) << "query " << q << " rank " << i;
    }
  }
}

// The heap key gives the probe tag 8 bits. Probes past the 256th share the
// saturated tag instead of spilling into the length field, so every
// candidate's length stays a real LCP (at most m) and lengths surface in
// non-increasing order, as Algorithm 2 promises.
TEST(MpLccsLshTest, ProbesBeyondTagWidthKeepLengthsExact) {
  dataset::SyntheticConfig config;
  config.n = 4000;
  config.num_queries = 20;
  config.dim = 24;
  config.num_clusters = 15;
  config.center_scale = 8.0;
  config.cluster_stddev = 1.0;
  config.metric = util::Metric::kEuclidean;
  config.seed = 87;
  const auto data = dataset::GenerateClustered(config);
  const size_t m = 32;
  for (const size_t probes : {size_t{257}, size_t{1025}}) {
    const auto mp = BuildMp(data, m, probes);
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const auto candidates = mp->Candidates(data.queries.Row(q), 200);
      ASSERT_EQ(candidates.size(), 200u);
      for (size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_LE(candidates[i].len, static_cast<int32_t>(m))
            << probes << " probes, query " << q << " rank " << i;
        if (i > 0) {
          EXPECT_LE(candidates[i].len, candidates[i - 1].len)
              << probes << " probes, query " << q << " rank " << i;
        }
      }
    }
  }
}

TEST(MpLccsLshTest, CandidatesAreDistinct) {
  const auto data = MediumClusters(util::Metric::kEuclidean);
  const auto mp = BuildMp(data, 32, 33);
  for (size_t q = 0; q < 5; ++q) {
    const auto candidates = mp->Candidates(data.queries.Row(q), 80);
    std::set<int32_t> ids;
    for (const auto& c : candidates) ids.insert(c.id);
    EXPECT_EQ(ids.size(), candidates.size());
  }
}

TEST(MpLccsLshTest, MoreProbesNeverHurtRecallMuch) {
  // With the same small λ, probing should surface at-least-as-good
  // candidates on average (the point of Section 4.2). Averaged over queries
  // and measured with a margin to absorb randomness.
  const auto data = MediumClusters(util::Metric::kEuclidean, 82);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const auto single = BuildMp(data, 24, 1);
  const auto multi = BuildMp(data, 24, 49);
  double recall_single = 0.0, recall_multi = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall_single += eval::Recall(
        single->Query(data.queries.Row(q), 10, 30), gt.ForQuery(q));
    recall_multi += eval::Recall(multi->Query(data.queries.Row(q), 10, 30),
                                 gt.ForQuery(q));
  }
  EXPECT_GE(recall_multi, recall_single - 0.5) << "probing regressed recall";
}

TEST(MpLccsLshTest, HighRecallAngular) {
  const auto data = MediumClusters(util::Metric::kAngular, 83);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const auto mp = BuildMp(data, 48, 49);
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall += eval::Recall(mp->Query(data.queries.Row(q), 10, 200),
                           gt.ForQuery(q));
  }
  recall /= static_cast<double>(data.num_queries());
  EXPECT_GT(recall, 0.6);
}

TEST(MpLccsLshTest, ProbeParamsMutable) {
  const auto data = MediumClusters(util::Metric::kEuclidean, 84);
  auto mp = BuildMp(data, 16, 1);
  EXPECT_EQ(mp->probe_params().num_probes, 1u);
  ProbeParams params = mp->probe_params();
  params.num_probes = 17;
  mp->set_probe_params(params);
  EXPECT_EQ(mp->probe_params().num_probes, 17u);
  // Still answers queries after the switch.
  const auto result = mp->Query(data.queries.Row(0), 5, 50);
  EXPECT_EQ(result.size(), 5u);
}

TEST(MpLccsLshTest, QueryResultsSortedByDistance) {
  const auto data = MediumClusters(util::Metric::kEuclidean, 85);
  const auto mp = BuildMp(data, 32, 33);
  const auto result = mp->Query(data.queries.Row(1), 10, 60);
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

TEST(MpLccsLshTest, DeterministicAcrossRebuilds) {
  const auto data = MediumClusters(util::Metric::kEuclidean, 86);
  const auto a = BuildMp(data, 24, 25);
  const auto b = BuildMp(data, 24, 25);
  for (size_t q = 0; q < 5; ++q) {
    const auto ra = a->Query(data.queries.Row(q), 8, 40);
    const auto rb = b->Query(data.queries.Row(q), 8, 40);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
