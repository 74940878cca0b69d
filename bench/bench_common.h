#ifndef LCCS_BENCH_BENCH_COMMON_H_
#define LCCS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "eval/pareto.h"
#include "eval/runner.h"
#include "eval/workloads.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace lccs {
namespace bench {

/// Comma-separated env list, or `fallback` when the variable is unset/empty.
inline std::vector<std::string> EnvList(const char* name,
                                        std::vector<std::string> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<std::string> values;
  std::string current;
  for (const char* c = env; ; ++c) {
    if (*c == ',' || *c == '\0') {
      if (!current.empty()) values.push_back(current);
      current.clear();
      if (*c == '\0') break;
    } else {
      current += *c;
    }
  }
  return values;
}

/// The paper's five datasets (Table 2), overridable via
/// LCCS_BENCH_DATASETS="sift,glove".
inline std::vector<std::string> DatasetNames() {
  return EnvList("LCCS_BENCH_DATASETS",
                 {"msong", "sift", "gist", "glove", "deep"});
}

// --- Hardware/build context --------------------------------------------------
// Every bench JSON records where it ran: throughput and batching numbers
// from a 1-core container and a 32-core box are not comparable, and the
// figure files outlive the machine that produced them.

inline size_t NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

/// The worker count util::ThreadPool actually runs with (LCCS_POOL_WORKERS
/// when set, hardware concurrency otherwise — parsed by the pool alone).
inline size_t PoolWorkers() {
  return util::ThreadPool::Instance().num_workers();
}

/// CMAKE_BUILD_TYPE baked in at compile time (bench/CMakeLists.txt) — a
/// Debug or sanitizer figure must not masquerade as a Release one.
inline const char* BuildTypeName() {
#ifdef LCCS_BUILD_TYPE_NAME
  return sizeof(LCCS_BUILD_TYPE_NAME) > 1 ? LCCS_BUILD_TYPE_NAME : "unset";
#else
  return "unknown";
#endif
}

/// The three fields above as a JSON fragment (no surrounding braces), for
/// splicing into a bench's `context` object.
inline std::string HardwareContextJson() {
  return "\"num_cpus\": " + std::to_string(NumCpus()) +
         ", \"pool_workers\": " + std::to_string(PoolWorkers()) +
         ", \"build_type\": \"" + std::string(BuildTypeName()) + "\"";
}

/// The λ sweep of the figure benches: max(5, frac·n) per fraction, sorted
/// and without repeats, so a small n whose first fractions all clamp to 5
/// runs that λ once.
inline std::vector<size_t> LambdaGrid(const std::vector<double>& fractions,
                                      size_t n) {
  std::vector<size_t> lambdas;
  for (const double frac : fractions) {
    lambdas.push_back(std::max<size_t>(
        5, static_cast<size_t>(frac * static_cast<double>(n))));
  }
  std::sort(lambdas.begin(), lambdas.end());
  lambdas.erase(std::unique(lambdas.begin(), lambdas.end()), lambdas.end());
  return lambdas;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Standard row shape shared by the figure benches.
inline void AddRunRow(util::Table* table, const std::string& dataset,
                      const eval::RunResult& run) {
  table->AddRow({dataset, run.method, run.params,
                 util::FormatDouble(100.0 * run.recall, 1),
                 util::FormatDouble(run.ratio, 3),
                 util::FormatDouble(run.avg_query_ms, 3),
                 util::FormatBytes(run.index_bytes),
                 util::FormatDouble(run.build_seconds, 2)});
}

inline util::Table MakeRunTable() {
  return util::Table({"dataset", "method", "params", "recall%", "ratio",
                      "query_ms", "index", "build_s"});
}

}  // namespace bench
}  // namespace lccs

#endif  // LCCS_BENCH_BENCH_COMMON_H_
