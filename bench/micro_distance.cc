// Microbenchmarks for the verification hot path: scalar per-pair distance
// vs the dispatched SIMD kernel vs batched candidate verification
// (VerifyCandidates), in GB/s of candidate rows scanned, at the paper's
// d = 128 (SIFT-like) and d = 960 (GIST-like) — plus persistent-pool vs
// spawn-per-call ParallelFor latency at serving batch sizes 1/8/64.
//
// Acceptance target (ISSUE 2): batched AVX2 verification ≥ 3× the scalar
// per-pair path at d = 128 in a Release build. Emit machine-readable
// results with:
//   ./build/bench/micro_distance --benchmark_out=BENCH_micro_distance.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "storage/quantized_store.h"
#include "storage/vector_store.h"
#include "util/matrix.h"
#include "util/metric.h"
#include "util/random.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace {

using namespace lccs;

constexpr size_t kRows = 4096;
constexpr size_t kCandidates = 1024;

struct Fixture {
  util::Matrix data;
  std::vector<float> query;
  std::vector<int32_t> ids;

  explicit Fixture(size_t d) : data(kRows, d), query(d), ids(kCandidates) {
    util::Rng rng(42);
    rng.FillGaussian(data.data(), kRows * d);
    rng.FillGaussian(query.data(), d);
    // Gathered (non-contiguous) candidate rows, as real query paths see.
    for (size_t i = 0; i < kCandidates; ++i) {
      ids[i] = static_cast<int32_t>(rng.NextBounded(kRows));
    }
  }
};

void SetRowBytes(benchmark::State& state, size_t d) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCandidates * d *
                                               sizeof(float)));
}

// The pre-SIMD verification loop: one scalar double-accumulator distance
// (matrix.cc) and one heap push per candidate.
void BM_VerifyScalarPerPair(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  const Fixture f(d);
  for (auto _ : state) {
    util::TopK topk(10);
    for (const int32_t id : f.ids) {
      topk.Push(id, util::L2(f.data.Row(id), f.query.data(), d));
    }
    benchmark::DoNotOptimize(topk);
  }
  SetRowBytes(state, d);
}

// Dispatched kernel, still one call per candidate.
void BM_VerifySimdPerPair(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  const Fixture f(d);
  for (auto _ : state) {
    util::TopK topk(10);
    for (const int32_t id : f.ids) {
      topk.Push(id, util::simd::L2(f.data.Row(id), f.query.data(), d));
    }
    benchmark::DoNotOptimize(topk);
  }
  SetRowBytes(state, d);
}

// The batched path every query route uses now: 4-row unrolled, prefetched.
void BM_VerifyBatched(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  const Fixture f(d);
  for (auto _ : state) {
    util::TopK topk(10);
    util::VerifyCandidates(util::Metric::kEuclidean, f.data.data(), d,
                           f.query.data(), f.ids.data(), kCandidates, topk);
    benchmark::DoNotOptimize(topk);
  }
  SetRowBytes(state, d);
}

BENCHMARK(BM_VerifyScalarPerPair)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifySimdPerPair)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyBatched)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Bounded scatter (partial distance search) vs the unbounded grouped kernel,
// on one LCCS-sized candidate list: λ + k − 1 = 2009 rows (λ = 2000,
// k = 10) gathered from a Gaussian mixture, at the msong (420), deep (256),
// sift (128) and gist (960) dimensions. Args: (d, k, bounded). The list is
// ordered as the gather sees it — its first k rows are the k nearest, so the
// seed bound is the k-th best distance. bounded = 1 runs the engine's
// phase 5: the k seeds scored exactly, then the rest under the bound;
// bounded = 0 scores all 2009 rows unbounded. `rejected` is the fraction of
// rows abandoned early. k = 100 and 300 put the list at 20·k and 6.7·k,
// around the engine's 16·k engagement rule.

constexpr size_t kScatterList = 2009;

struct ScatterFixture {
  util::Matrix data;
  std::vector<float> query;
  std::vector<int32_t> ids;
  std::vector<int32_t> slots;

  explicit ScatterFixture(size_t d)
      : data(kScatterList, d), query(d), ids(kScatterList),
        slots(kScatterList) {
    // The msong analogue's mixture (center scale 12, cluster stddev 1.2)
    // over 8 clusters, one of them the query's: about 250 candidates share
    // its cluster, as a 2009-row list over a 25k-row msong shard (~310
    // rows per cluster) does.
    constexpr size_t kClusters = 8;
    util::Rng rng(45);
    util::Matrix centers(kClusters, d);
    rng.FillGaussian(centers.data(), kClusters * d);
    const auto draw = [&](size_t cluster, float* out) {
      rng.FillGaussian(out, d);
      for (size_t j = 0; j < d; ++j) {
        out[j] = 12.0f * centers.Row(cluster)[j] + 1.2f * out[j];
      }
    };
    for (size_t i = 0; i < kScatterList; ++i) {
      draw(rng.NextBounded(kClusters), data.Row(i));
    }
    draw(0, query.data());
    for (size_t i = 0; i < kScatterList; ++i) {
      ids[i] = static_cast<int32_t>((i * 997) % kScatterList);
      slots[i] = static_cast<int32_t>(i);
    }
  }

  // Moves the k nearest rows to the front of the list, nearest first.
  void SeedNearestFirst(size_t k) {
    std::vector<double> dist(kScatterList);
    util::DistanceMany(util::Metric::kEuclidean, data.data(), data.cols(),
                       query.data(), ids.data(), kScatterList, dist.data());
    std::vector<size_t> order(kScatterList);
    for (size_t i = 0; i < kScatterList; ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](size_t a, size_t b) { return dist[a] < dist[b]; });
    std::vector<bool> front(kScatterList, false);
    std::vector<int32_t> reordered;
    for (size_t i = 0; i < k; ++i) {
      reordered.push_back(ids[order[i]]);
      front[order[i]] = true;
    }
    for (size_t i = 0; i < kScatterList; ++i) {
      if (!front[i]) reordered.push_back(ids[i]);
    }
    ids = std::move(reordered);
  }
};

void BM_DistanceScatterBounded(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const bool bounded = state.range(2) != 0;
  ScatterFixture f(d);
  f.SeedNearestFirst(k);
  std::vector<double> out(kScatterList);
  const size_t seeds = bounded ? k : 0;
  for (auto _ : state) {
    double bound = std::numeric_limits<double>::infinity();
    if (seeds > 0) {
      util::DistanceScatter(util::Metric::kEuclidean, f.data.data(), d,
                            f.query.data(), f.ids.data(), f.slots.data(),
                            seeds, out.data());
      bound = *std::max_element(out.begin(), out.begin() + seeds);
    }
    util::DistanceScatter(util::Metric::kEuclidean, f.data.data(), d,
                          f.query.data(), f.ids.data() + seeds,
                          f.slots.data() + seeds, kScatterList - seeds,
                          out.data(), bound);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const auto rejected = std::count(out.begin(), out.end(),
                                   std::numeric_limits<double>::infinity());
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kScatterList),
      benchmark::Counter::kIsRate);
  state.counters["rejected"] =
      static_cast<double>(rejected) / static_cast<double>(kScatterList);
}

BENCHMARK(BM_DistanceScatterBounded)
    ->ArgsProduct({{128, 256, 420, 960}, {10, 100, 300}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// int8 quantized candidate scoring (storage/quantized_store.h). Same gather
// shape as the float rows above, but each candidate is d *bytes* of codes +
// one integer dot product — the first pass of two-phase verification.
// GB/s here is of code bytes, so compare rows/s (not GB/s) against the
// float kernels: at equal scan rates the int8 tier moves 4x fewer bytes.

struct QuantizedFixture {
  storage::InMemoryStore store;
  std::shared_ptr<const storage::QuantizedStore> quantized;
  storage::QuantizedStore::PreparedQuery pq;
  std::vector<int32_t> ids;
  std::vector<float> out;

  explicit QuantizedFixture(size_t d)
      : store([d] {
          util::Matrix m(kRows, d);
          util::Rng rng(42);
          rng.FillGaussian(m.data(), kRows * d);
          return m;
        }()),
        ids(kCandidates),
        out(kCandidates) {
    quantized =
        storage::QuantizedStore::Build(store, util::Metric::kEuclidean);
    std::vector<float> query(d);
    util::Rng rng(43);
    rng.FillGaussian(query.data(), d);
    pq = quantized->Prepare(query.data());
    for (size_t i = 0; i < kCandidates; ++i) {
      ids[i] = static_cast<int32_t>(rng.NextBounded(kRows));
    }
  }
};

void SetCodeBytes(benchmark::State& state, size_t d) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCandidates * d));
}

// Pinned-tier inner loop: the per-candidate kernel alone, bypassing the
// dispatch, so scalar and AVX2 rows isolate the instruction-set delta.
void RunDotCodesBench(benchmark::State& state, util::SimdTier tier) {
  const auto d = static_cast<size_t>(state.range(0));
  const QuantizedFixture f(d);
  for (auto _ : state) {
    int64_t acc = 0;
    for (const int32_t id : f.ids) {
      acc += util::simd::DotCodesI8Tier(
          tier, f.quantized->Codes(static_cast<size_t>(id)),
          f.pq.weights.data(), d);
    }
    benchmark::DoNotOptimize(acc);
  }
  SetCodeBytes(state, d);
}

void BM_DotCodesI8Scalar(benchmark::State& state) {
  RunDotCodesBench(state, util::SimdTier::kScalar);
}

void BM_DotCodesI8Avx2(benchmark::State& state) {
  if (util::ActiveSimdTier() != util::SimdTier::kAvx2) {
    state.SkipWithError("AVX2 tier unavailable on this host");
    return;
  }
  RunDotCodesBench(state, util::SimdTier::kAvx2);
}

// The production entry point: dispatch + float combination per candidate,
// what LCCS/linear-scan query paths actually pay per pruned candidate.
void BM_QuantizedScoreCandidates(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  QuantizedFixture f(d);
  for (auto _ : state) {
    f.quantized->ScoreCandidates(f.pq, f.ids.data(), kCandidates, 0,
                                 f.out.data());
    benchmark::DoNotOptimize(f.out.data());
  }
  SetCodeBytes(state, d);
}

BENCHMARK(BM_DotCodesI8Scalar)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DotCodesI8Avx2)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QuantizedScoreCandidates)->Arg(128)->Arg(960)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Persistent pool vs spawn-per-call, at serving batch sizes. Per-item work
// models one small query verification (64 rows at d = 128).

// The old util::ParallelFor: fresh std::threads on every call.
void SpawnParallelFor(size_t n,
                      const std::function<void(size_t, size_t)>& fn,
                      size_t num_threads) {
  if (n == 0) return;
  size_t threads = num_threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  if (threads == 1) {
    fn(0, n);
    return;
  }
  const size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& w : workers) w.join();
}

constexpr size_t kPoolThreads = 4;
constexpr size_t kRowsPerItem = 64;

template <typename ParallelForFn>
void RunBatchBench(benchmark::State& state, ParallelForFn&& parallel_for) {
  const auto batch = static_cast<size_t>(state.range(0));
  const Fixture f(128);
  const auto work = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      util::TopK topk(10);
      const auto first =
          static_cast<int32_t>((i * kRowsPerItem) % (kRows - kRowsPerItem));
      util::VerifyCandidates(util::Metric::kEuclidean, f.data.data(), 128,
                             f.query.data(), nullptr, kRowsPerItem, topk,
                             first);
      benchmark::DoNotOptimize(topk);
    }
  };
  for (auto _ : state) {
    parallel_for(batch, work, kPoolThreads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}

void BM_ParallelForSpawn(benchmark::State& state) {
  RunBatchBench(state, SpawnParallelFor);
}

void BM_ParallelForPool(benchmark::State& state) {
  RunBatchBench(state,
                [](size_t n, const std::function<void(size_t, size_t)>& fn,
                   size_t threads) { util::ParallelFor(n, fn, threads); });
}

BENCHMARK(BM_ParallelForSpawn)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ParallelForPool)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// Correctness gate run before the timing rows: quantize-then-rerank top-10
// (score every row int8, keep 3 * k, exact-rerank the survivors) must agree
// with exact-only top-10 to >= 99% recall across 32 queries. A quantizer
// regression fails the benchmark binary loudly instead of silently shipping
// pretty-but-wrong GB/s numbers.
double QuantizedRerankAgreement() {
  constexpr size_t d = 128, k = 10, num_queries = 32;
  QuantizedFixture f(d);
  util::Matrix queries(num_queries, d);
  util::Rng rng(44);
  rng.FillGaussian(queries.data(), num_queries * d);

  const size_t keep = 3 * k;
  std::vector<float> scores(kRows);
  double hits = 0.0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const float* query = queries.Row(qi);
    util::TopK exact(k);
    util::VerifyCandidates(util::Metric::kEuclidean, f.store.data(), d,
                           query, nullptr, kRows, exact, 0);

    const auto pq = f.quantized->Prepare(query);
    f.quantized->ScoreCandidates(pq, nullptr, kRows, 0, scores.data());
    storage::RerankSelector selector(keep);
    for (size_t i = 0; i < kRows; ++i) {
      selector.Offer(scores[i], static_cast<int32_t>(i));
    }
    const std::vector<int32_t> pruned = selector.TakeAscendingIds();
    util::TopK reranked(k);
    util::VerifyCandidates(util::Metric::kEuclidean, f.store.data(), d,
                           query, pruned.data(), pruned.size(), reranked);

    const auto want = exact.Sorted();
    const auto got = reranked.Sorted();
    for (const util::Neighbor& w : want) {
      for (const util::Neighbor& g : got) {
        if (g.id == w.id) {
          hits += 1.0;
          break;
        }
      }
    }
  }
  return hits / static_cast<double>(k * num_queries);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const double agreement = QuantizedRerankAgreement();
  if (agreement < 0.99) {
    std::fprintf(stderr,
                 "FATAL: quantize-then-rerank recall@10 = %.4f < 0.99 — the "
                 "int8 tier is mis-ranking candidates\n",
                 agreement);
    return 1;
  }
  benchmark::AddCustomContext("quantized_rerank_recall_at_10",
                              std::to_string(agreement));
  // Which kernel tier the dispatch selected — the README's "how do I check
  // what's active" knob. Ends up in the JSON context block too.
  benchmark::AddCustomContext(
      "simd_tier", util::SimdTierName(util::ActiveSimdTier()));
  // Hardware/build context (Google Benchmark reports num_cpus natively):
  // the ParallelFor rows are a function of the worker budget.
  benchmark::AddCustomContext("pool_workers",
                              std::to_string(lccs::bench::PoolWorkers()));
  benchmark::AddCustomContext("build_type", lccs::bench::BuildTypeName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
