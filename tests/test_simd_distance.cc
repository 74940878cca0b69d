// The SIMD subsystem's contracts: (1) whatever tier is active, kernels agree
// with the scalar double-accumulator references within 1e-5 relative across
// awkward dimensions (tail handling); (2) the batched VerifyCandidates /
// DistanceMany paths are bit-identical to one single-pair util::Distance
// call per candidate, whatever the grouping; (3) QueryBatch on the
// persistent pool stays bit-identical to sequential Query.

#include "util/simd_distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "dataset/synthetic.h"
#include "util/matrix.h"
#include "util/metric.h"
#include "util/random.h"
#include "util/topk.h"

namespace lccs {
namespace util {
namespace {

const size_t kDims[] = {1, 3, 8, 31, 128, 960};

std::vector<float> RandomVector(Rng& rng, size_t d) {
  std::vector<float> v(d);
  rng.FillGaussian(v.data(), d);
  return v;
}

std::vector<float> RandomBinaryVector(Rng& rng, size_t d) {
  std::vector<float> v(d);
  for (auto& x : v) x = (rng.NextBounded(2) == 1) ? 1.0f : 0.0f;
  return v;
}

// Scalar references for the binary metrics (the dense ones live in
// matrix.h), built on the shared thresholding helper.
double RefHamming(const float* a, const float* b, size_t d) {
  size_t diff = 0;
  for (size_t i = 0; i < d; ++i) {
    diff += (IsSetCoordinate(a[i]) != IsSetCoordinate(b[i])) ? 1 : 0;
  }
  return static_cast<double>(diff);
}

double RefJaccard(const float* a, const float* b, size_t d) {
  size_t inter = 0, uni = 0;
  for (size_t i = 0; i < d; ++i) {
    inter += (IsSetCoordinate(a[i]) && IsSetCoordinate(b[i])) ? 1 : 0;
    uni += (IsSetCoordinate(a[i]) || IsSetCoordinate(b[i])) ? 1 : 0;
  }
  return uni == 0 ? 0.0 : 1.0 - static_cast<double>(inter) / uni;
}

void ExpectClose(double got, double ref, size_t d) {
  EXPECT_NEAR(got, ref, 1e-5 * std::max(1.0, std::abs(ref)))
      << "d=" << d << " tier=" << SimdTierName(ActiveSimdTier());
}

TEST(SimdDistanceTest, TierNameIsKnown) {
  const char* name = SimdTierName(ActiveSimdTier());
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2");
}

TEST(SimdDistanceTest, DenseKernelsMatchScalarReference) {
  Rng rng(7);
  for (const size_t d : kDims) {
    const auto a = RandomVector(rng, d);
    const auto b = RandomVector(rng, d);
    ExpectClose(simd::SquaredL2(a.data(), b.data(), d),
                SquaredL2(a.data(), b.data(), d), d);
    ExpectClose(simd::L2(a.data(), b.data(), d), L2(a.data(), b.data(), d),
                d);
    ExpectClose(simd::Dot(a.data(), b.data(), d), Dot(a.data(), b.data(), d),
                d);
    ExpectClose(simd::Angular(a.data(), b.data(), d),
                AngularDistance(a.data(), b.data(), d), d);
  }
}

TEST(SimdDistanceTest, BinaryKernelsMatchScalarReferenceExactly) {
  Rng rng(8);
  for (const size_t d : kDims) {
    const auto a = RandomBinaryVector(rng, d);
    const auto b = RandomBinaryVector(rng, d);
    // Integer counts: every tier must agree bit-for-bit.
    EXPECT_EQ(simd::Hamming(a.data(), b.data(), d),
              RefHamming(a.data(), b.data(), d))
        << "d=" << d;
    EXPECT_EQ(simd::Jaccard(a.data(), b.data(), d),
              RefJaccard(a.data(), b.data(), d))
        << "d=" << d;
  }
}

TEST(SimdDistanceTest, ZeroAndIdenticalVectors) {
  Rng rng(9);
  for (const size_t d : kDims) {
    const auto a = RandomVector(rng, d);
    const std::vector<float> zero(d, 0.0f);
    EXPECT_EQ(simd::SquaredL2(a.data(), a.data(), d), 0.0);
    EXPECT_EQ(simd::L2(a.data(), a.data(), d), 0.0);
    // Zero-norm angular inputs are defined as distance 0.
    EXPECT_EQ(simd::Angular(zero.data(), a.data(), d), 0.0);
    EXPECT_EQ(simd::Jaccard(zero.data(), zero.data(), d), 0.0);
  }
}

TEST(SimdDistanceTest, DistanceDispatchCoversAllMetrics) {
  Rng rng(10);
  const size_t d = 31;
  const auto a = RandomBinaryVector(rng, d);
  const auto b = RandomBinaryVector(rng, d);
  EXPECT_EQ(Distance(Metric::kEuclidean, a.data(), b.data(), d),
            simd::L2(a.data(), b.data(), d));
  EXPECT_EQ(Distance(Metric::kAngular, a.data(), b.data(), d),
            simd::Angular(a.data(), b.data(), d));
  EXPECT_EQ(Distance(Metric::kHamming, a.data(), b.data(), d),
            simd::Hamming(a.data(), b.data(), d));
  EXPECT_EQ(Distance(Metric::kJaccard, a.data(), b.data(), d),
            simd::Jaccard(a.data(), b.data(), d));
}

TEST(SimdDistanceTest, DistanceManyBitIdenticalToSinglePair) {
  Rng rng(11);
  const size_t n = 57;  // deliberately not a multiple of the group size
  for (const size_t d : kDims) {
    Matrix data(n, d);
    rng.FillGaussian(data.data(), n * d);
    const auto query = RandomVector(rng, d);
    // A shuffled, repeating id list — gathered rows, as real candidate
    // lists are.
    std::vector<int32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<int32_t>((i * 13 + 5) % n);
    }
    for (const Metric metric : {Metric::kEuclidean, Metric::kAngular,
                                Metric::kHamming, Metric::kJaccard}) {
      std::vector<double> out(n);
      DistanceMany(metric, data.data(), d, query.data(), ids.data(), n,
                   out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], Distance(metric, data.Row(ids[i]), query.data(), d))
            << MetricName(metric) << " d=" << d << " i=" << i;
      }
    }
  }
}

TEST(SimdDistanceTest, DistanceManyNullIdsMeansContiguousRows) {
  Rng rng(12);
  const size_t n = 10, d = 128;
  Matrix data(n, d);
  rng.FillGaussian(data.data(), n * d);
  const auto query = RandomVector(rng, d);
  std::vector<double> out(n - 3);
  DistanceMany(Metric::kEuclidean, data.data(), d, query.data(),
               /*ids=*/nullptr, n - 3, out.data(), /*first_id=*/3);
  for (size_t i = 0; i < n - 3; ++i) {
    EXPECT_EQ(out[i],
              Distance(Metric::kEuclidean, data.Row(i + 3), query.data(), d));
  }
}

TEST(SimdDistanceTest, VerifyCandidatesMatchesSequentialPushes) {
  Rng rng(13);
  const size_t n = 200, d = 31, k = 10;
  Matrix data(n, d);
  rng.FillGaussian(data.data(), n * d);
  const auto query = RandomVector(rng, d);
  std::vector<int32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  for (const Metric metric : {Metric::kEuclidean, Metric::kAngular}) {
    TopK batched(k);
    VerifyCandidates(metric, data.data(), d, query.data(), ids.data(), n,
                     batched);
    TopK sequential(k);
    for (const int32_t id : ids) {
      sequential.Push(id, Distance(metric, data.Row(id), query.data(), d));
    }
    const auto got = batched.Sorted();
    const auto want = sequential.Sorted();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].dist, want[i].dist);
    }
  }
}

TEST(SimdDistanceTest, VerifyCandidatesEmptyListIsNoop) {
  TopK topk(5);
  VerifyCandidates(Metric::kEuclidean, nullptr, 8, nullptr, nullptr, 0, topk);
  EXPECT_EQ(topk.size(), 0u);
}

// Dimensions crossing every 8-float step, 32-float round and masked-tail
// boundary of the bounded scatter kernel.
const size_t kScatterDims[] = {1, 7, 8, 31, 32, 33, 63, 64, 65, 128, 256, 420};

// A scatter list over `n` rows: gathered ids, slots a permutation of 0..n-1.
void ScatterList(size_t n, std::vector<int32_t>* ids,
                 std::vector<int32_t>* slots) {
  ids->resize(n);
  slots->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*ids)[i] = static_cast<int32_t>((i * 13 + 5) % n);
    (*slots)[i] = static_cast<int32_t>((i * 7 + 3) % n);
  }
}

TEST(SimdDistanceTest, DistanceScatterUnboundedMatchesDistanceMany) {
  Rng rng(14);
  const size_t n = 57;
  std::vector<int32_t> ids, slots;
  ScatterList(n, &ids, &slots);
  for (const size_t d : kScatterDims) {
    Matrix data(n, d);
    rng.FillGaussian(data.data(), n * d);
    const auto query = RandomVector(rng, d);
    for (const Metric metric : {Metric::kEuclidean, Metric::kAngular,
                                Metric::kHamming, Metric::kJaccard}) {
      std::vector<double> many(n), scattered(n);
      DistanceMany(metric, data.data(), d, query.data(), ids.data(), n,
                   many.data());
      DistanceScatter(metric, data.data(), d, query.data(), ids.data(),
                      slots.data(), n, scattered.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scattered[slots[i]], many[i])
            << MetricName(metric) << " d=" << d << " i=" << i;
      }
    }
  }
}

// The bound may only drop rows strictly farther than it: every row the
// kernel completes is bit-identical to DistanceMany, every row it abandons
// (+inf) is truly farther than the bound, and rows duplicating the row the
// bound was taken from (distance exactly b) are always completed. Lists of
// 1-3 rows start with idle lanes; 57 leaves a ragged last group.
TEST(SimdDistanceTest, DistanceScatterBoundedIsExact) {
  Rng rng(15);
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t d : kScatterDims) {
    for (const size_t n : {size_t{1}, size_t{3}, size_t{57}}) {
      Matrix data(n, d);
      rng.FillGaussian(data.data(), n * d);
      const auto query = RandomVector(rng, d);
      std::vector<int32_t> ids, slots;
      ScatterList(n, &ids, &slots);
      std::vector<double> many(n);
      DistanceMany(Metric::kEuclidean, data.data(), d, query.data(),
                   ids.data(), n, many.data());
      // Seed row: the median-distance row; every fourth row is its copy.
      std::vector<double> sorted = many;
      std::sort(sorted.begin(), sorted.end());
      const double b = sorted[n / 2];
      const size_t seed = static_cast<size_t>(
          ids[std::find(many.begin(), many.end(), b) - many.begin()]);
      for (size_t r = 0; r < n; r += 4) {
        if (r == seed) continue;
        std::copy(data.Row(seed), data.Row(seed) + d, data.Row(r));
      }
      DistanceMany(Metric::kEuclidean, data.data(), d, query.data(),
                   ids.data(), n, many.data());
      std::vector<double> bounded(n, -1.0);
      DistanceScatter(Metric::kEuclidean, data.data(), d, query.data(),
                      ids.data(), slots.data(), n, bounded.data(), b);
      size_t rejected = 0;
      for (size_t i = 0; i < n; ++i) {
        const double got = bounded[slots[i]];
        const auto id = static_cast<size_t>(ids[i]);
        if (got == inf) {
          ++rejected;
          EXPECT_GT(many[i], b) << "d=" << d << " n=" << n << " i=" << i;
        } else {
          EXPECT_EQ(got, many[i]) << "d=" << d << " n=" << n << " i=" << i;
        }
        if (id % 4 == 0 || id == seed) {
          EXPECT_EQ(got, b) << "seed copy abandoned, d=" << d << " i=" << i;
        }
      }
      // Far rows are abandoned once a whole round fits in the row.
      if (ActiveSimdTier() == SimdTier::kAvx2 && d >= 64 && n == 57) {
        EXPECT_GT(rejected, 0u) << "d=" << d;
      }
    }
  }
}

// Off the Euclidean AVX2 path — other metrics, or the scalar tier, which
// CI runs this suite on with LCCS_SIMD=scalar — the bound is ignored and
// every row is scored exactly, even with a bound every row exceeds.
TEST(SimdDistanceTest, DistanceScatterBoundIgnoredOffTheLaneKernel) {
  Rng rng(16);
  const size_t n = 21;
  std::vector<int32_t> ids, slots;
  ScatterList(n, &ids, &slots);
  for (const size_t d : kScatterDims) {
    Matrix data(n, d);
    rng.FillGaussian(data.data(), n * d);
    const auto query = RandomVector(rng, d);
    for (const Metric metric : {Metric::kEuclidean, Metric::kAngular,
                                Metric::kHamming, Metric::kJaccard}) {
      const bool lane_kernel = metric == Metric::kEuclidean &&
                               ActiveSimdTier() == SimdTier::kAvx2 && d >= 32;
      if (lane_kernel) continue;
      std::vector<double> unbounded(n), bounded(n);
      DistanceScatter(metric, data.data(), d, query.data(), ids.data(),
                      slots.data(), n, unbounded.data());
      DistanceScatter(metric, data.data(), d, query.data(), ids.data(),
                      slots.data(), n, bounded.data(), /*bound=*/0.0);
      EXPECT_EQ(bounded, unbounded) << MetricName(metric) << " d=" << d;
    }
  }
}

// QueryBatch fans out over the persistent pool; results must stay
// bit-identical to one sequential Query per row (the broader sweep across
// all index configs lives in test_batch_query.cc).
TEST(SimdDistanceTest, QueryBatchBitIdenticalOnPersistentPool) {
  dataset::SyntheticConfig config;
  config.n = 400;
  config.num_queries = 12;
  config.dim = 24;
  config.seed = 77;
  const auto data = dataset::GenerateClustered(config);

  baselines::LinearScan scan;
  scan.Build(data);
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 40;
  baselines::LccsLshIndex lccs(params);
  lccs.Build(data);

  for (const baselines::AnnIndex* index :
       {static_cast<const baselines::AnnIndex*>(&scan),
        static_cast<const baselines::AnnIndex*>(&lccs)}) {
    for (const size_t threads : {size_t{0}, size_t{1}, size_t{3}}) {
      const auto batched =
          index->QueryBatch(data.queries.data(), data.num_queries(), 5,
                            threads);
      ASSERT_EQ(batched.size(), data.num_queries());
      for (size_t q = 0; q < data.num_queries(); ++q) {
        const auto want = index->Query(data.queries.Row(q), 5);
        ASSERT_EQ(batched[q].size(), want.size()) << index->name();
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(batched[q][i].id, want[i].id) << index->name();
          EXPECT_EQ(batched[q][i].dist, want[i].dist) << index->name();
        }
      }
    }
  }
}

}  // namespace
}  // namespace util
}  // namespace lccs
