// Disk-resident vs heap-resident serving: the measurement behind the
// storage::VectorStore refactor (ROADMAP "Disk-resident datasets").
//
// A synthetic Sift-like base set (d = 128) is streamed into an LCCS flat
// file; then, for each index config (LinearScan, LCCS-LSH), two *forked*
// children build and query it:
//
//   * inmemory  — the flat file is loaded into a heap InMemoryStore (what
//     every run looked like before the refactor);
//   * mmap      — a storage::MmapStore maps the file read-only under a
//     residency budget (LCCS_BENCH_BUDGET_MB, default 64), so base-vector
//     pages are dropped with MADV_DONTNEED whenever the touched-bytes clock
//     crosses the budget.
//   * quantized — mmap plus the int8 candidate tier: after the build the
//     index drops its CSA next-links (ReleaseNextLinks) and attaches a
//     storage::QuantizedStore, so candidate scoring runs over heap-resident
//     codes (1 byte/dim) and only the top k * overfetch rows are copy-
//     gathered (io_uring / pread, storage/uring_reader.h) out of the page
//     cache for the exact rerank — never faulted through the mapping, so
//     the residency clock does not tick at serve time. The ROADMAP gate:
//     warm latency within 1.5x of inmemory at <= 35% of its RSS.
//
// One child per run because peak RSS (getrusage ru_maxrss) is a per-process
// high-water mark: the parent forks, the child builds + queries and reports
// timings over a pipe, and the parent reads the child's true peak RSS from
// wait4(). Cold latency is the first query pass after the build (for mmap,
// after dropping residency — every base page faults back in); warm is the
// best of five further passes — steady-state latency, not one sample of it,
// because a single query pass on a loaded box can read several tens of
// percent high and the inmemory/quantized ratio below gates CI.
//
// Env knobs: LCCS_BENCH_N (default 100000; the paper-scale run uses
// 1000000), LCCS_BENCH_QUERIES (default 256), LCCS_BENCH_BUDGET_MB.
// Usage: disk_store [out.json]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "bench_common.h"
#include "dataset/dataset.h"
#include "eval/workloads.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "util/random.h"
#include "util/timer.h"

namespace lccs {
namespace {

struct ChildReport {
  double build_s = 0.0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  /// False when the timed "build" did no indexing work (LinearScan just
  /// retains the store) — the JSON then reports build_s as null instead of
  /// a microsecond-scale timer artifact.
  bool builds = false;
};

struct RunResult {
  std::string index;
  std::string mode;
  ChildReport timings;
  double peak_rss_mb = 0.0;
};

/// Streams a clustered Gaussian-mixture base set (Sift-analogue knobs)
/// straight into a flat file — O(dim) memory, so the parent process never
/// holds the base set and its RSS cannot pollute the children's baselines.
void GenerateFlatBase(const std::string& path, size_t n, size_t dim,
                      uint64_t seed) {
  util::Rng rng(seed);
  const size_t num_clusters = 100;
  std::vector<float> centers(num_clusters * dim);
  for (auto& x : centers) {
    x = static_cast<float>(rng.Gaussian(0.0, 8.0));
  }
  storage::FlatFileWriter writer(path, dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble() < 0.05) {
      for (auto& x : row) x = static_cast<float>(rng.Uniform(-16.0, 16.0));
    } else {
      const float* center = centers.data() + rng.NextBounded(num_clusters) * dim;
      for (size_t j = 0; j < dim; ++j) {
        row[j] = center[j] + static_cast<float>(rng.Gaussian(0.0, 1.0));
      }
    }
    writer.AppendRow(row.data());
  }
  writer.Finish();
}

/// Loads a flat file into a heap matrix with buffered reads (no transient
/// mapping, so the in-memory child's RSS is the matrix plus the index).
util::Matrix LoadFlatIntoMatrix(const std::string& path) {
  const storage::FlatHeader header = storage::ReadFlatHeader(path);
  util::Matrix m(header.rows, header.cols);
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(storage::kFlatHeaderBytes));
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.SizeBytes()));
  if (!in) throw std::runtime_error("flat file read failed: " + path);
  return m;
}

std::unique_ptr<baselines::AnnIndex> MakeIndex(const std::string& name) {
  if (name == "LinearScan") return std::make_unique<baselines::LinearScan>();
  baselines::LccsLshIndex::Params params;
  params.m = 8;
  params.lambda = 128;
  params.w = 8.0;
  return std::make_unique<baselines::LccsLshIndex>(params);
}

/// The child body: build + two query passes; timings through `report`.
ChildReport RunChild(const std::string& flat_path, const std::string& mode,
                     const std::string& index_name,
                     const std::vector<float>& queries, size_t num_queries,
                     size_t dim, size_t budget_bytes) {
  dataset::Dataset data;
  data.name = "disk-store-bench";
  data.metric = util::Metric::kEuclidean;
  std::shared_ptr<storage::MmapStore> mapped;
  if (mode == "mmap" || mode == "quantized") {
    storage::MmapStore::Options options;
    options.verify_checksum = false;  // this process's parent just wrote it
    // The quantized tier serves exact rerank rows through the copy-gather
    // path (pread), never through resident pages, so its mapping only needs
    // budget for the sequential build/encode sweeps — an eighth of the
    // exact tier's keeps the RSS high-water down without touching latency.
    options.residency_budget_bytes =
        mode == "quantized" ? budget_bytes / 8 : budget_bytes;
    mapped = storage::MmapStore::Open(flat_path, options);
    data.data = mapped;
  } else {
    data.data = LoadFlatIntoMatrix(flat_path);
  }

  ChildReport report;
  const auto index = MakeIndex(index_name);
  {
    util::Timer timer;
    index->Build(data);
    if (mode == "quantized") {
      // Order matters for peak RSS: free the CSA next-links *before*
      // allocating the code arrays, so the high-water mark never holds both.
      if (auto* lccs_index =
              dynamic_cast<baselines::LccsLshIndex*>(index.get())) {
        lccs_index->ReleaseNextLinks();
      }
      if (storage::EnsureQuantized(data.data.store(), data.metric) ==
          nullptr) {
        throw std::runtime_error("quantized tier failed to attach");
      }
    }
    report.build_s = timer.ElapsedSeconds();
  }
  report.builds = index->IndexSizeBytes() > 0 || mode == "quantized";
  if (mapped != nullptr) {
    mapped->ReleaseResidency();  // the cold pass below faults pages back in
  }
  const auto pass_ms = [&] {
    util::Timer timer;
    for (size_t q = 0; q < num_queries; ++q) {
      const auto result = index->Query(queries.data() + q * dim, 10);
      if (result.empty()) std::abort();  // keep the work observable
    }
    return timer.ElapsedMillis() / static_cast<double>(num_queries);
  };
  report.cold_ms = pass_ms();
  report.warm_ms = pass_ms();
  for (int rep = 1; rep < 5; ++rep) {
    report.warm_ms = std::min(report.warm_ms, pass_ms());
  }
  return report;
}

/// Forks a child for one (index, mode) run; returns timings + peak RSS.
RunResult ForkRun(const std::string& flat_path, const std::string& index_name,
                  const std::string& mode, const std::vector<float>& queries,
                  size_t num_queries, size_t dim, size_t budget_bytes) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    ChildReport report{};
    int exit_code = 0;
    try {
      report = RunChild(flat_path, mode, index_name, queries, num_queries,
                        dim, budget_bytes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child (%s/%s) failed: %s\n", index_name.c_str(),
                   mode.c_str(), e.what());
      exit_code = 1;
    }
    const ssize_t wrote = write(fds[1], &report, sizeof(report));
    close(fds[1]);
    _exit(exit_code == 0 && wrote == sizeof(report) ? 0 : 1);
  }
  close(fds[1]);
  RunResult result;
  result.index = index_name;
  result.mode = mode;
  if (read(fds[0], &result.timings, sizeof(result.timings)) !=
      static_cast<ssize_t>(sizeof(result.timings))) {
    close(fds[0]);
    throw std::runtime_error("child produced no report: " + index_name + "/" +
                             mode);
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child failed: " + index_name + "/" + mode);
  }
  result.peak_rss_mb =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
  return result;
}

int Run(int argc, char** argv) {
  const size_t n = eval::EnvSize("LCCS_BENCH_N", 100000);
  const size_t dim = eval::EnvSize("LCCS_BENCH_DIM", 128);
  const size_t num_queries = eval::EnvSize("LCCS_BENCH_QUERIES", 256);
  const size_t budget_mb = eval::EnvSize("LCCS_BENCH_BUDGET_MB", 64);
  const char* out_path = argc > 1 ? argv[1] : "BENCH_disk_store.json";
  const std::string flat_path =
      "/tmp/lccs_disk_store_" + std::to_string(getpid()) + ".flat";

  std::cout << "disk_store: n=" << n << " dim=" << dim
            << " queries=" << num_queries << " budget=" << budget_mb
            << "MB\nwriting flat base set to " << flat_path << "...\n";
  GenerateFlatBase(flat_path, n, dim, /*seed=*/128001);

  // Queries: drawn from the same mixture (fresh seed), kept tiny and
  // inherited by every forked child so all runs answer identical queries.
  std::vector<float> queries(num_queries * dim);
  {
    util::Rng rng(128002);
    for (auto& x : queries) x = static_cast<float>(rng.Gaussian(0.0, 8.0));
  }

  std::vector<RunResult> results;
  for (const std::string index_name : {"LinearScan", "LCCS-LSH"}) {
    for (const std::string mode : {"inmemory", "mmap", "quantized"}) {
      std::cout << index_name << " / " << mode << "..." << std::flush;
      results.push_back(ForkRun(flat_path, index_name, mode, queries,
                                num_queries, dim,
                                budget_mb * size_t{1024} * 1024));
      const RunResult& r = results.back();
      std::cout << " build " << r.timings.build_s << "s, cold "
                << r.timings.cold_ms << "ms, warm " << r.timings.warm_ms
                << "ms, peak RSS " << r.peak_rss_mb << "MB\n";
    }
  }
  std::remove(flat_path.c_str());

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"disk_store\",\n"
      << "  \"context\": {" << bench::HardwareContextJson() << "},\n"
      << "  \"n\": " << n << ",\n  \"dim\": " << dim << ",\n"
      << "  \"num_queries\": " << num_queries << ",\n"
      << "  \"residency_budget_mb\": " << budget_mb << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"index\": \"" << r.index << "\", \"mode\": \"" << r.mode
        << "\", \"build_s\": ";
    if (r.timings.builds) {
      out << r.timings.build_s;
    } else {
      out << "null";  // no index construction happened; the timer would
                      // report sub-microsecond noise
    }
    out << ", \"cold_ms_per_query\": " << r.timings.cold_ms
        << ", \"warm_ms_per_query\": " << r.timings.warm_ms
        << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  const auto find_run = [&](const std::string& index,
                            const std::string& mode) -> const RunResult* {
    for (const RunResult& r : results) {
      if (r.index == index && r.mode == mode) return &r;
    }
    return nullptr;
  };
  const std::vector<std::string> index_names = {"LinearScan", "LCCS-LSH"};
  out << "  ],\n  \"rss_ratio_mmap_vs_inmemory\": {\n";
  for (size_t i = 0; i < index_names.size(); ++i) {
    const RunResult* heap = find_run(index_names[i], "inmemory");
    const RunResult* mm = find_run(index_names[i], "mmap");
    const double ratio = mm->peak_rss_mb / heap->peak_rss_mb;
    out << "    \"" << index_names[i] << "\": " << ratio
        << (i + 1 < index_names.size() ? "," : "") << "\n";
    std::cout << index_names[i] << ": mmap peak RSS is " << ratio * 100.0
              << "% of in-memory\n";
  }
  // The quantized-tier acceptance gates (ROADMAP "Quantized candidate
  // tier"): RSS <= 35% of the in-memory run and warm latency <= 1.5x it.
  out << "  },\n  \"quantized_vs_inmemory\": {\n";
  for (size_t i = 0; i < index_names.size(); ++i) {
    const RunResult* heap = find_run(index_names[i], "inmemory");
    const RunResult* quant = find_run(index_names[i], "quantized");
    const double rss_ratio = quant->peak_rss_mb / heap->peak_rss_mb;
    const double warm_ratio = quant->timings.warm_ms / heap->timings.warm_ms;
    out << "    \"" << index_names[i] << "\": {\"rss_ratio\": " << rss_ratio
        << ", \"warm_latency_ratio\": " << warm_ratio << "}"
        << (i + 1 < index_names.size() ? "," : "") << "\n";
    std::cout << index_names[i] << ": quantized peak RSS is "
              << rss_ratio * 100.0 << "% of in-memory, warm latency "
              << warm_ratio << "x\n";
  }
  out << "  }\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace lccs

int main(int argc, char** argv) { return lccs::Run(argc, argv); }
