// Microbenchmarks for the Circular Shift Array. Build: one circular sort
// of shift 0, then one counting pass per 11-bit digit of each derived
// shift's symbol range, O(m n) for the derived shifts where Theorem 3.1
// charges O(m n log n). k-LCCS query: O(log n + (m + k) log m) (Theorem
// 3.1), against the O(n m^2) brute-force LCCS scan. BM_CsaBuild draws from
// 16 symbols, so every derived shift takes one digit pass;
// BM_CsaBuildFullRange draws full-range 32-bit values, so every derived
// shift takes all three.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/csa.h"
#include "core/lccs.h"
#include "util/random.h"

namespace {

using lccs::core::CircularShiftArray;
using lccs::core::HashValue;

// Alphabet 0 draws full-range 32-bit values, negative ones included.
std::vector<HashValue> RandomStrings(size_t n, size_t m, int alphabet,
                                     uint64_t seed) {
  lccs::util::Rng rng(seed);
  std::vector<HashValue> data(n * m);
  for (auto& v : data) {
    v = alphabet == 0
            ? static_cast<HashValue>(static_cast<uint32_t>(rng.NextU64()))
            : static_cast<HashValue>(rng.NextBounded(alphabet));
  }
  return data;
}

void RunBuildBench(benchmark::State& state, int alphabet) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto data = RandomStrings(n, m, alphabet, 1);
  for (auto _ : state) {
    CircularShiftArray csa;
    csa.Build(data.data(), n, m);
    benchmark::DoNotOptimize(csa);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_CsaBuild(benchmark::State& state) { RunBuildBench(state, 16); }
void BM_CsaBuildFullRange(benchmark::State& state) { RunBuildBench(state, 0); }

BENCHMARK(BM_CsaBuild)
    ->Args({1000, 32})
    ->Args({10000, 32})
    ->Args({10000, 64})
    ->Args({10000, 128})
    ->Args({25000, 64})  // one serving shard (lccs_bench: 100k rows / 4)
    ->Args({50000, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CsaBuildFullRange)
    ->Args({25000, 64})
    ->Unit(benchmark::kMillisecond);

void BM_CsaSearch(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto k = static_cast<size_t>(state.range(2));
  const auto data = RandomStrings(n, m, 16, 2);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  lccs::util::Rng rng(3);
  std::vector<HashValue> q(m);
  for (auto _ : state) {
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(16));
    benchmark::DoNotOptimize(csa.Search(q.data(), k));
  }
}
BENCHMARK(BM_CsaSearch)
    ->Args({10000, 32, 10})
    ->Args({10000, 64, 10})
    ->Args({10000, 128, 10})
    ->Args({50000, 64, 10})
    ->Args({50000, 64, 100})
    ->Args({50000, 64, 1000})
    // The serving point: one shard of lccs_bench, k = λ + 10 - 1 at λ = 2000.
    ->Args({25000, 64, 2009})
    ->Unit(benchmark::kMicrosecond);

// Brute-force k-LCCS for contrast: O(n m^2) vs the CSA's sublinear search.
void BM_BruteForceKLccs(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto m = static_cast<size_t>(state.range(1));
  const auto data = RandomStrings(n, m, 16, 4);
  lccs::util::Rng rng(5);
  std::vector<HashValue> q(m);
  for (auto _ : state) {
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(16));
    benchmark::DoNotOptimize(
        lccs::core::BruteForceKLccs(data.data(), n, m, q.data(), 10));
  }
}
BENCHMARK(BM_BruteForceKLccs)
    ->Args({10000, 32})
    ->Args({10000, 64})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
