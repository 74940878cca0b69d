// Microbenchmarks for the LSH families: η(d) per Section 5.2 — O(d) for
// random projection, O(d log d) for cross-polytope (pseudo-rotations),
// O(1) for bit sampling. The {420, 64} and {128, 16} shapes are the
// lccs_bench read_saturated and disk_quantized indexes; the build-chunk
// cases hash a 25k-row shard's rows on one thread, the hashing half of one
// shard's Build, consolidation or checkpoint restore. The alternatives
// cases time the multi-probe query entry, HashWithAlternatives with four
// alternatives per function.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "lsh/family_factory.h"
#include "util/random.h"

namespace {

using namespace lccs;

void RunHashBench(benchmark::State& state, lsh::FamilyKind kind) {
  const auto d = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto family = lsh::MakeFamily(kind, d, m, 4.0, 11);
  util::Rng rng(12);
  std::vector<float> v(d);
  rng.FillGaussian(v.data(), d);
  std::vector<lsh::HashValue> out(m);
  for (auto _ : state) {
    family->Hash(v.data(), out.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}

// The multi-probe query hash: H(v) plus kAlternatives per function.
void RunAlternativesBench(benchmark::State& state, lsh::FamilyKind kind) {
  constexpr size_t kAlternatives = 4;
  const auto d = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto family = lsh::MakeFamily(kind, d, m, 4.0, 11);
  util::Rng rng(12);
  std::vector<float> v(d);
  rng.FillGaussian(v.data(), d);
  std::vector<lsh::HashValue> out(m);
  std::vector<std::vector<lsh::AltHash>> alts;
  for (auto _ : state) {
    family->HashWithAlternatives(v.data(), kAlternatives, out.data(), &alts);
    benchmark::DoNotOptimize(out);
    benchmark::DoNotOptimize(alts);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}

// Hashes 25k Gaussian rows back to back and reports the cost per row.
void RunBuildChunkBench(benchmark::State& state, lsh::FamilyKind kind) {
  constexpr size_t kRows = 25000;
  const auto d = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto family = lsh::MakeFamily(kind, d, m, 4.0, 11);
  util::Rng rng(13);
  std::vector<float> rows(kRows * d);
  rng.FillGaussian(rows.data(), rows.size());
  std::vector<lsh::HashValue> out(kRows * m);
  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kRows; ++i) {
      family->Hash(rows.data() + i * d, out.data() + i * m);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  state.counters["us_per_row"] =
      seconds * 1e6 / (static_cast<double>(state.iterations()) * kRows);
}

void BM_RandomProjection(benchmark::State& state) {
  RunHashBench(state, lsh::FamilyKind::kRandomProjection);
}
void BM_CrossPolytope(benchmark::State& state) {
  RunHashBench(state, lsh::FamilyKind::kCrossPolytope);
}
void BM_SignProjection(benchmark::State& state) {
  RunHashBench(state, lsh::FamilyKind::kSignProjection);
}
void BM_BitSampling(benchmark::State& state) {
  RunHashBench(state, lsh::FamilyKind::kBitSampling);
}
void BM_RandomProjectionAlternatives(benchmark::State& state) {
  RunAlternativesBench(state, lsh::FamilyKind::kRandomProjection);
}
void BM_CrossPolytopeAlternatives(benchmark::State& state) {
  RunAlternativesBench(state, lsh::FamilyKind::kCrossPolytope);
}
void BM_RandomProjectionBuildChunk(benchmark::State& state) {
  RunBuildChunkBench(state, lsh::FamilyKind::kRandomProjection);
}
void BM_SignProjectionBuildChunk(benchmark::State& state) {
  RunBuildChunkBench(state, lsh::FamilyKind::kSignProjection);
}

BENCHMARK(BM_RandomProjection)
    ->Args({128, 16})
    ->Args({128, 64})
    ->Args({420, 64})
    ->Args({960, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CrossPolytope)
    ->Args({128, 64})
    ->Args({960, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SignProjection)
    ->Args({128, 16})
    ->Args({128, 64})
    ->Args({420, 64})
    ->Args({960, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BitSampling)
    ->Args({128, 64})
    ->Args({960, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RandomProjectionAlternatives)
    ->Args({128, 16})
    ->Args({420, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CrossPolytopeAlternatives)
    ->Args({128, 64})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RandomProjectionBuildChunk)
    ->Args({420, 64})
    ->Args({128, 16})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SignProjectionBuildChunk)
    ->Args({420, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
