#include "core/lccs_lsh.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "lsh/family_factory.h"
#include "util/simd_distance.h"

namespace lccs {
namespace core {
namespace {

dataset::Dataset EasyClusters(util::Metric metric, uint64_t seed = 71) {
  dataset::SyntheticConfig config;
  config.n = 2000;
  config.num_queries = 20;
  config.dim = 24;
  config.num_clusters = 10;
  config.center_scale = 20.0;   // far-apart clusters
  config.cluster_stddev = 0.5;  // tight clusters: NN search is easy
  config.noise_fraction = 0.0;
  config.metric = metric;
  config.normalize = metric == util::Metric::kAngular;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

LccsLsh BuildIndex(const dataset::Dataset& data, size_t m, double w = 8.0) {
  auto family = lsh::MakeFamily(lsh::DefaultFamilyFor(data.metric),
                                data.dim(), m, w, 2024);
  LccsLsh index(std::move(family), data.metric);
  index.Build(data.data.data(), data.n(), data.dim());
  return index;
}

TEST(LccsLshTest, BasicAccessors) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto index = BuildIndex(data, 32);
  EXPECT_EQ(index.n(), data.n());
  EXPECT_EQ(index.dim(), data.dim());
  EXPECT_EQ(index.m(), 32u);
  EXPECT_EQ(index.csa().n(), data.n());
  EXPECT_EQ(index.csa().m(), 32u);
  EXPECT_GT(index.SizeBytes(), 0u);
}

TEST(LccsLshTest, CandidatesAreDistinctAndBounded) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto index = BuildIndex(data, 32);
  const auto candidates = index.Candidates(data.queries.Row(0), 50);
  EXPECT_EQ(candidates.size(), 50u);
  std::set<int32_t> ids;
  for (const auto& c : candidates) ids.insert(c.id);
  EXPECT_EQ(ids.size(), candidates.size());
}

TEST(LccsLshTest, QueryReturnsSortedNeighbors) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto index = BuildIndex(data, 32);
  const auto result = index.Query(data.queries.Row(0), 10, 100);
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].dist, result[i].dist);
  }
}

TEST(LccsLshTest, HighRecallOnEasyClustersEuclidean) {
  const auto data = EasyClusters(util::Metric::kEuclidean);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const auto index = BuildIndex(data, 64);
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto result = index.Query(data.queries.Row(q), 10, 200);
    recall += eval::Recall(result, gt.ForQuery(q));
  }
  recall /= static_cast<double>(data.num_queries());
  EXPECT_GT(recall, 0.8) << "LCCS-LSH should nail well-separated clusters";
}

TEST(LccsLshTest, HighRecallOnEasyClustersAngular) {
  const auto data = EasyClusters(util::Metric::kAngular);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const auto index = BuildIndex(data, 64);
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto result = index.Query(data.queries.Row(q), 10, 200);
    recall += eval::Recall(result, gt.ForQuery(q));
  }
  recall /= static_cast<double>(data.num_queries());
  EXPECT_GT(recall, 0.8);
}

TEST(LccsLshTest, RecallGrowsWithLambda) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 72);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const auto index = BuildIndex(data, 32);
  auto recall_at = [&](size_t lambda) {
    double recall = 0.0;
    for (size_t q = 0; q < data.num_queries(); ++q) {
      recall +=
          eval::Recall(index.Query(data.queries.Row(q), 10, lambda),
                       gt.ForQuery(q));
    }
    return recall / static_cast<double>(data.num_queries());
  };
  const double r_small = recall_at(5);
  const double r_large = recall_at(400);
  EXPECT_GE(r_large, r_small);
  EXPECT_GT(r_large, 0.85);
}

TEST(LccsLshTest, LambdaEqualToNIsExhaustive) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 73);
  const auto gt = dataset::GroundTruth::Compute(data, 5);
  const auto index = BuildIndex(data, 16);
  // Verifying every point must return the exact answer regardless of hashes.
  for (size_t q = 0; q < 5; ++q) {
    const auto result = index.Query(data.queries.Row(q), 5, data.n());
    EXPECT_DOUBLE_EQ(eval::Recall(result, gt.ForQuery(q)), 1.0);
  }
}

TEST(LccsLshTest, WorksWithHammingFamily) {
  const auto data = dataset::GenerateHamming(500, 10, 128, 8, 0.02, 99);
  auto family = lsh::MakeFamily(lsh::FamilyKind::kBitSampling, 128, 96, 0.0,
                                2025);
  LccsLsh index(std::move(family), util::Metric::kHamming);
  index.Build(data.data.data(), data.n(), data.dim());
  const auto gt = dataset::GroundTruth::Compute(data, 5);
  double recall = 0.0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    recall += eval::Recall(index.Query(data.queries.Row(q), 5, 150),
                           gt.ForQuery(q));
  }
  recall /= static_cast<double>(data.num_queries());
  EXPECT_GT(recall, 0.6) << "family-independence: Hamming via bit sampling";
}

TEST(LccsLshTest, DeterministicAcrossRebuilds) {
  const auto data = EasyClusters(util::Metric::kEuclidean, 74);
  const auto a = BuildIndex(data, 32);
  const auto b = BuildIndex(data, 32);
  for (size_t q = 0; q < 5; ++q) {
    const auto ra = a.Query(data.queries.Row(q), 10, 50);
    const auto rb = b.Query(data.queries.Row(q), 10, 50);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
    }
  }
}

// The gather's seeded bound (phase 5 of QueryBatch) must never change an
// answer: every QueryBatch row equals, bit for bit, the paper's rule run
// outside the engine — the k nearest of the λ + k − 1 candidates by
// VerifyCandidates. The base set repeats rows two and three times, 1100 ids
// apart — more than a gather block holds at these d — and half the queries are
// exact copies of base rows, so k-th distances tie across ids and TopK's
// tie-breaking is exercised. d = 128 and k = 300 (a list shorter than 16·k)
// take the unbounded path; d ∈ {256, 420} at k ∈ {1, 10} seed a bound.
TEST(LccsLshTest, SeededGatherMatchesVerifiedCandidates) {
  const size_t distinct = 1100, n = 3000, nq = 64, lambda = 400;
  for (const size_t d : {size_t{128}, size_t{256}, size_t{420}}) {
    dataset::SyntheticConfig config;
    config.n = distinct;
    config.num_queries = nq / 2;
    config.dim = d;
    config.num_clusters = 8;
    config.seed = 300 + d;
    const auto data = dataset::GenerateClustered(config);
    std::vector<float> base(n * d);
    for (size_t i = 0; i < n; ++i) {
      const float* src = data.data.Row(i % distinct);
      std::copy(src, src + d, base.begin() + i * d);
    }
    std::vector<float> queries(nq * d);
    for (size_t q = 0; q < nq; ++q) {
      const float* src = q % 2 == 0 ? data.queries.Row(q / 2)
                                    : base.data() + ((q * 37) % n) * d;
      std::copy(src, src + d, queries.begin() + q * d);
    }
    auto family = [&] {
      return lsh::MakeFamily(lsh::FamilyKind::kRandomProjection, d, 32, 8.0,
                             2026);
    };
    LccsLsh single(family(), util::Metric::kEuclidean);
    ProbeParams probes;
    probes.num_probes = 4;
    LccsLsh multi(family(), util::Metric::kEuclidean, probes);
    for (LccsLsh* scheme : {&single, static_cast<LccsLsh*>(&multi)}) {
      scheme->Build(base.data(), n, d);
    }
    for (const size_t k : {size_t{1}, size_t{10}, size_t{300}}) {
      const size_t count = lambda + k - 1;
      for (const LccsLsh* scheme : {&single, static_cast<LccsLsh*>(&multi)}) {
        const bool is_mp = scheme == &multi;
        const std::string leg = std::string(is_mp ? "MP-LCCS" : "LCCS") +
                                " d=" + std::to_string(d) +
                                " k=" + std::to_string(k);
        std::vector<std::vector<util::Neighbor>> expected(nq);
        for (size_t q = 0; q < nq; ++q) {
          const float* query = queries.data() + q * d;
          const auto cands = is_mp ? multi.Candidates(query, count)
                                   : scheme->Candidates(query, count);
          std::vector<int32_t> ids;
          for (const LccsCandidate& c : cands) ids.push_back(c.id);
          util::TopK topk(k);
          util::VerifyCandidates(util::Metric::kEuclidean, base.data(), d,
                                 query, ids.data(), ids.size(), topk);
          expected[q] = topk.Sorted();
        }
        for (size_t q = 0; q < nq; ++q) {
          const auto solo =
              scheme->QueryBatch(queries.data() + q * d, 1, k, lambda, 1);
          EXPECT_EQ(solo[0], expected[q]) << leg << " window 1 query " << q;
        }
        for (const size_t threads : {size_t{1}, size_t{3}}) {
          const auto window =
              scheme->QueryBatch(queries.data(), nq, k, lambda, threads);
          ASSERT_EQ(window.size(), nq) << leg;
          for (size_t q = 0; q < nq; ++q) {
            EXPECT_EQ(window[q], expected[q])
                << leg << " window 64 threads " << threads << " query " << q;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
