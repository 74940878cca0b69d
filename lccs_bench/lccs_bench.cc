// lccs_bench — the serving benchmark: builds, runs and checks four
// workloads through serve::Server and prints every metric by name with its
// unit. Each workload runs in a forked child in two phases: an untraced
// phase that produces the end-to-end numbers, and (with --trace 1) a traced
// replay that times each layer's public entry points from outside and
// reports per-layer numbers. lccs_bench/README.md lists the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// Usage:
//   lccs_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR] [--cache DIR] [--smoke]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"} — the end-to-end metrics, or with
// --trace 1 the per-layer ones. The exit code is non-zero when any
// correctness check fails (recall below 0.5, a malformed response, a
// recovered WAL that differs from the stopped primary, ...).

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/workloads.h"
#include "loadgen.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "trace.h"
#include "util/random.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs_bench {
namespace {

using lccs::serve::ShardedIndex;
using lccs::serve::WriteAheadLog;

constexpr size_t kK = 10;
constexpr size_t kMaxBatch = 64;
constexpr const char* kWorkloads[] = {"read_saturated", "read_sweep",
                                      "churn_durable", "disk_quantized"};

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "lccs_bench_out";
  std::string cache_dir;  ///< default: <out_dir>/cache
};

/// Everything that differs between the four workloads.
struct WorkloadSpec {
  std::string name;
  lccs::dataset::SyntheticConfig data;
  size_t queries = 1000;  ///< the query pool, cached with exact answers
  bool disk = false;      ///< MmapStore + int8 tier
  lccs::baselines::LccsLshIndex::Params lccs;
  bool w_from_data = true;  ///< w = 4 x EstimateDistanceScale
  LoadSpec load;
  bool durable = false;  ///< group-commit WAL + checkpoints
  size_t rebuild_threshold = 1024;
  size_t max_queue = 0;
  size_t base_step = 0;  ///< open loop: the step reporting latency
};

WorkloadSpec MakeSpec(const std::string& name, const Options& opt) {
  const double s = opt.seconds;
  const size_t scale_n = opt.smoke ? 5000 : 0;
  WorkloadSpec spec;
  spec.name = name;
  spec.queries = opt.smoke ? 100 : 1000;
  spec.lccs.m = 64;
  spec.lccs.lambda = 2000;
  spec.load.k = kK;
  spec.load.max_batch = kMaxBatch;
  spec.load.seed = opt.seed * 0x9E3779B97F4A7C15ULL + 1;
  if (name == "read_saturated" || name == "read_sweep") {
    spec.data = lccs::dataset::MsongAnalogue(scale_n ? scale_n : 100000,
                                             spec.queries);
    if (name == "read_saturated") {
      spec.load.in_flight = 128;
      spec.load.warmup_s = s / 6.0;
      spec.load.measure_s = s;
    } else {
      // Evenly spaced arrivals; the 100 QPS step holds about one query per
      // window, the later steps bracket the knee.
      spec.load.open_loop = true;
      spec.load.steps = {{100.0, opt.smoke ? 0.2 : 0.5, false},
                         {100.0, s * 2.0 / 3.0, true},
                         {300.0, s / 12.0, true},
                         {500.0, s / 12.0, true},
                         {700.0, s / 12.0, true},
                         {900.0, s / 12.0, true}};
      spec.base_step = 1;
      spec.max_queue = 4096;
    }
  } else if (name == "churn_durable") {
    spec.data = lccs::dataset::SiftAnalogue(scale_n ? scale_n : 100000,
                                            spec.queries);
    spec.load.in_flight = 32;
    spec.load.warmup_s = s / 10.0;
    spec.load.measure_s = s;
    spec.load.insert_fraction = 0.3;
    spec.load.remove_fraction = 0.2;
    spec.durable = true;
    // Half the 1024-row default: at the 50/30/20 mix each shard then
    // consolidates at least three times in a 15 s measured phase.
    spec.rebuild_threshold = 512;
  } else if (name == "disk_quantized") {
    // The Gaussian mixture of bench/disk_store at d = 128, under its own
    // seed; queries come from the same mixture.
    spec.data = lccs::dataset::SiftAnalogue(scale_n ? scale_n : 250000,
                                            spec.queries);
    spec.data.name = "mixture";
    spec.data.seed = 1280003;
    spec.disk = true;
    spec.lccs.m = 16;
    spec.lccs.w = 32.0;
    spec.w_from_data = false;
    spec.load.open_loop = true;
    spec.load.steps = {{300.0, s / 10.0, false}, {300.0, s, true}};
    spec.base_step = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return spec;
}

// --- Data, cached ground truth ----------------------------------------------

struct Data {
  /// The served base set: on the heap, or for disk_quantized the
  /// MmapStore that SetUp opens.
  lccs::dataset::Dataset base;
  std::string base_path;        ///< flat file of the base set
  lccs::util::Matrix queries;   ///< the query pool
  std::vector<int32_t> gt;      ///< queries x kK exact neighbor ids
};

lccs::util::Matrix LoadFlat(const std::string& path) {
  const lccs::storage::FlatHeader header = lccs::storage::ReadFlatHeader(path);
  lccs::util::Matrix m(header.rows, header.cols);
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(lccs::storage::kFlatHeaderBytes));
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.SizeBytes()));
  if (!in) throw std::runtime_error("flat file read failed: " + path);
  return m;
}

bool ReadGroundTruth(const std::string& path, size_t rows,
                     std::vector<int32_t>* gt) {
  std::ifstream in(path, std::ios::binary);
  uint64_t header[2] = {0, 0};
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header)) ||
      header[0] != rows || header[1] != kK) {
    return false;
  }
  gt->resize(rows * kK);
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(gt->data()),
              static_cast<std::streamsize>(gt->size() * sizeof(int32_t))));
}

void WriteGroundTruth(const std::string& path,
                      const std::vector<int32_t>& gt, size_t rows) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    const uint64_t header[2] = {rows, kK};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(gt.data()),
              static_cast<std::streamsize>(gt.size() * sizeof(int32_t)));
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot publish " + path);
  }
}

/// The base set, the query pool and its exact top-10, generated once and
/// cached as flat files keyed by (dataset, n, d, queries, data seed). The
/// run seed drives the request stream (query order, mutation mix, insert
/// payloads), so every seed shares one ground truth, and none of it is
/// charged to setup_s.
Data PrepareData(const WorkloadSpec& spec, const std::string& cache_dir) {
  const lccs::dataset::SyntheticConfig& c = spec.data;
  const std::string key = cache_dir + "/" + c.name + "_n" +
                          std::to_string(c.n) + "_d" +
                          std::to_string(c.dim) + "_q" +
                          std::to_string(c.num_queries) + "_s" +
                          std::to_string(c.seed);
  Data data;
  data.base_path = key + ".base.flat";
  const std::string queries_path = key + ".queries.flat";
  const std::string gt_path = key + ".gt10.bin";
  bool cached = false;
  try {
    const auto base = lccs::storage::ReadFlatHeader(data.base_path);
    data.queries = LoadFlat(queries_path);
    cached = base.rows == c.n && base.cols == c.dim &&
             data.queries.rows() == c.num_queries &&
             ReadGroundTruth(gt_path, c.num_queries, &data.gt);
  } catch (const std::runtime_error&) {
    cached = false;
  }
  if (!cached) {
    std::printf("generating %s (n=%zu, d=%zu) and its exact top-%zu ...\n",
                c.name.c_str(), c.n, c.dim, kK);
    std::fflush(stdout);
    const lccs::dataset::Dataset generated =
        lccs::dataset::GenerateClustered(c);
    const lccs::dataset::GroundTruth truth =
        lccs::dataset::GroundTruth::Compute(generated, kK);
    data.gt.assign(c.num_queries * kK, -1);
    for (size_t q = 0; q < c.num_queries; ++q) {
      const auto& row = truth.ForQuery(q);
      for (size_t i = 0; i < kK && i < row.size(); ++i) {
        data.gt[q * kK + i] = row[i].id;
      }
    }
    lccs::storage::WriteFlatFile(data.base_path, *generated.data.get());
    lccs::storage::WriteFlatFile(queries_path, *generated.queries.get());
    WriteGroundTruth(gt_path, data.gt, c.num_queries);
    data.queries = LoadFlat(queries_path);
  }
  data.base.name = c.name;
  data.base.metric = c.metric;
  if (!spec.disk) data.base.data = LoadFlat(data.base_path);
  return data;
}

// --- Process helpers -------------------------------------------------------

/// VmHWM of this process in MB (0 if unreadable).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Restarts the VmHWM high-water mark at the current RSS, so data
/// generation and ground truth are not charged to peak_rss_mb.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

void MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty()) ::mkdir(partial.c_str(), 0755);
    }
    if (i < path.size()) partial += path[i];
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// A measured request: when its latency clock started, and how long it took.
struct Sample {
  uint64_t t_ns = 0;
  double ms = 0.0;
};

/// Requests completed per second: the measured requests over the time from
/// the start of the measured phase to the last one's completion.
double Rate(const std::vector<Sample>& samples, uint64_t start) {
  uint64_t last = start;
  for (const Sample& s : samples) {
    last = std::max(last, s.t_ns + static_cast<uint64_t>(s.ms * 1e6));
  }
  return last > start
             ? static_cast<double>(samples.size()) / Seconds(last - start)
             : 0.0;
}

// Tail latency is the median over slices of the measured phase of each
// slice's p99: a burst of interference from outside the process (the box
// is a shared VM) then moves one slice, not the result. Every slice keeps
// at least 1000 samples, so at least ten lie beyond its p99.
constexpr size_t kMaxSlices = 5;
constexpr size_t kSamplesPerSlice = 1000;

double SlicedP99(const std::vector<Sample>& samples, uint64_t start,
                 uint64_t end) {
  const size_t slices =
      std::clamp<size_t>(samples.size() / kSamplesPerSlice, 1, kMaxSlices);
  std::vector<std::vector<double>> sliced(slices);
  for (const Sample& s : samples) {
    const size_t i =
        s.t_ns <= start || end <= start
            ? 0
            : std::min(slices - 1, static_cast<size_t>((s.t_ns - start) *
                                                       slices / (end - start)));
    sliced[i].push_back(s.ms);
  }
  std::vector<double> p99;
  for (const auto& slice : sliced) {
    if (!slice.empty()) p99.push_back(Percentile(slice, 0.99));
  }
  return Median(p99);
}

// --- Correctness -------------------------------------------------------------

double Overlap(const int32_t* got, const int32_t* truth) {
  size_t hits = 0;
  for (size_t i = 0; i < kK; ++i) {
    for (size_t j = 0; j < kK; ++j) {
      if (got[i] >= 0 && got[i] == truth[j]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(kK);
}

/// Exact recall of churn responses: for one seeded pick among the measured
/// answers of each pool query, the exact top-10 over the rows live at the
/// response's state_version (base rows not removed by then, plus inserts
/// applied by then and not removed), rebuilt from the acknowledged
/// mutation log. One answer per query keeps query difficulty out of the
/// run-to-run spread.
double ChurnRecall(const LoadResult& run, const lccs::dataset::Dataset& base,
                   const lccs::util::Matrix& pool, uint64_t seed,
                   size_t* samples, std::vector<std::string>* problems) {
  const size_t n = base.n();
  const size_t d = base.dim();
  size_t inserts = 0;
  for (const MutationRecord& m : run.mutations) inserts += m.is_insert;
  std::vector<uint64_t> inserted_at(inserts, UINT64_MAX);
  std::vector<int64_t> payload_of(inserts, -1);
  std::vector<uint64_t> removed_at(n + inserts, 0);
  for (const MutationRecord& m : run.mutations) {
    if (!m.ok || m.id < 0) continue;
    const auto id = static_cast<size_t>(m.id);
    if (m.is_insert) {
      if (id < n || id >= n + inserts) {
        problems->push_back("insert ack with an unexpected id");
        return 0.0;
      }
      inserted_at[id - n] = m.version;
      payload_of[id - n] = m.payload;
    } else if (id < removed_at.size()) {
      removed_at[id] = m.version;
    }
  }
  lccs::util::Matrix inserted(inserts, d);
  for (size_t i = 0; i < inserts; ++i) {
    if (payload_of[i] >= 0) {
      std::memcpy(inserted.Row(i),
                  run.insert_payloads.data() +
                      static_cast<size_t>(payload_of[i]) * d,
                  d * sizeof(float));
    }
  }

  // Reservoir pick of one measured answer per pool query.
  lccs::util::Rng rng(seed ^ 0x0AC1EULL);
  std::vector<const QueryRecord*> pick(pool.rows(), nullptr);
  std::vector<size_t> seen(pool.rows(), 0);
  for (const QueryRecord& q : run.queries) {
    if (!q.ok || !q.measured) continue;
    if (rng.NextBounded(++seen[q.pool_index]) == 0) pick[q.pool_index] = &q;
  }
  std::vector<const QueryRecord*> sample;
  for (const QueryRecord* q : pick) {
    if (q != nullptr) sample.push_back(q);
  }
  *samples = sample.size();
  if (sample.empty()) return 0.0;

  // Row blocks are scored against a group of queries at a time, so each
  // block is read from memory once per group instead of once per query.
  constexpr size_t kGroup = 32;
  constexpr size_t kBlock = 2048;
  std::vector<double> recall(sample.size(), 0.0);
  const size_t groups = (sample.size() + kGroup - 1) / kGroup;
  lccs::util::ParallelFor(groups, [&](size_t gb, size_t ge) {
    std::vector<double> dist(kBlock);
    for (size_t g = gb; g < ge; ++g) {
      const size_t first = g * kGroup;
      const size_t last = std::min(sample.size(), first + kGroup);
      std::vector<lccs::util::TopK> topk(last - first, lccs::util::TopK(kK));
      const auto scan = [&](const float* rows, size_t count, size_t id_base,
                            bool is_insert) {
        for (size_t b = 0; b < count; b += kBlock) {
          const size_t len = std::min(kBlock, count - b);
          for (size_t s = first; s < last; ++s) {
            const uint64_t v = sample[s]->state_version;
            lccs::util::DistanceMany(base.metric, rows, d,
                                     pool.Row(sample[s]->pool_index), nullptr,
                                     len, dist.data(),
                                     static_cast<int32_t>(b));
            for (size_t r = 0; r < len; ++r) {
              const size_t id = id_base + b + r;
              if (is_insert && inserted_at[id - n] > v) continue;
              if (removed_at[id] != 0 && removed_at[id] <= v) continue;
              topk[s - first].Push(static_cast<int32_t>(id), dist[r]);
            }
          }
        }
      };
      scan(base.data.data(), n, 0, false);
      scan(inserted.data(), inserts, n, true);
      for (size_t s = first; s < last; ++s) {
        int32_t truth[kK];
        const auto exact = topk[s - first].Sorted();
        for (size_t i = 0; i < kK; ++i) {
          truth[i] = i < exact.size() ? exact[i].id : -2;
        }
        recall[s] = Overlap(run.neighbor_ids.data() + sample[s]->ids_offset,
                            truth);
      }
    }
  });
  return std::accumulate(recall.begin(), recall.end(), 0.0) /
         static_cast<double>(recall.size());
}

/// Every acknowledged mutation names a distinct position 1..V of one dense
/// log, and no two inserts got the same id.
void CheckMutationLog(const LoadResult& run,
                      std::vector<std::string>* problems) {
  std::vector<uint64_t> versions;
  std::set<int32_t> insert_ids;
  for (const MutationRecord& m : run.mutations) {
    if (!m.ok) continue;
    versions.push_back(m.version);
    if (m.is_insert && !insert_ids.insert(m.id).second) {
      problems->push_back("two inserts acked with one id");
    }
  }
  std::sort(versions.begin(), versions.end());
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i] != i + 1) {
      problems->push_back("mutation acks do not form a dense log");
      return;
    }
  }
}

// --- One workload ------------------------------------------------------------

struct StepResult {
  double qps = 0.0;
  size_t offered = 0;
  size_t completed_in_time = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p99_ms = 0.0;  ///< generator
  bool slo_ok = false;
};

struct RunOutput {
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> diagnostics;
  std::vector<Metric> layer;
  std::map<std::string, CallStats> calls;
  std::vector<StepResult> steps;
  bool generator_valid = true;
};

std::vector<uint64_t> EpochSequences(const ShardedIndex& index) {
  std::vector<uint64_t> out;
  for (const auto& s : index.ShardStats()) out.push_back(s.epoch_sequence);
  return out;
}

WriteAheadLog::Options GroupCommit() {
  WriteAheadLog::Options options;
  options.fsync_policy = WriteAheadLog::FsyncPolicy::kGroupCommit;
  return options;
}

/// The system under test for one workload.
struct Serving {
  lccs::baselines::LccsLshIndex::Params lccs;
  lccs::core::DynamicIndex::Factory factory;
  ShardedIndex::Options index_options;
  std::string wal_dir;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<WriteAheadLog> wal;
};

/// Builds the index (plus mmap open, or WAL open and recover) up to the
/// point the server could accept requests, `repeats` times; returns each
/// setup's seconds and leaves the last one in `serving`.
std::vector<double> SetUp(const WorkloadSpec& spec, int repeats, Data* data,
                          Serving* serving) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    serving->wal.reset();
    serving->index.reset();
    RemoveTree(serving->wal_dir);
    const uint64_t start = NowNs();
    if (spec.disk) {
      data->base.data = lccs::storage::VectorStoreRef();
      lccs::storage::MmapStore::Options mmap_options;
      mmap_options.residency_budget_bytes =
          spec.data.n * spec.data.dim * sizeof(float) / 8;
      data->base.data =
          lccs::storage::MmapStore::Open(data->base_path, mmap_options);
    }
    serving->index = std::make_unique<ShardedIndex>(serving->factory,
                                                    serving->index_options);
    serving->index->Build(data->base);
    if (spec.durable) {
      MakeDirs(serving->wal_dir);
      serving->wal =
          std::make_unique<WriteAheadLog>(serving->wal_dir, GroupCommit());
      serving->wal->Recover(serving->index.get());
    }
    seconds.push_back(Seconds(NowNs() - start));
  }
  return seconds;
}

/// read_sweep's steps. SLO per step: p99 within 20 ms, at least 99% of
/// the offered queries answered by the end of the step plus 1 s, and none
/// refused.
void AddSweepSteps(const WorkloadSpec& spec, const LoadResult& run,
                   RunOutput* out) {
  double max_ok = 0.0;
  for (size_t s = 0; s < spec.load.steps.size(); ++s) {
    if (!spec.load.steps[s].measured) continue;
    const uint64_t deadline = run.step_start_ns[s + 1] + 1000000000ULL;
    StepResult r;
    r.qps = spec.load.steps[s].qps;
    std::vector<double> lat;
    bool refused = false;
    for (const QueryRecord& q : run.queries) {
      if (q.step != static_cast<int>(s)) continue;
      ++r.offered;
      if (!q.ok) {
        refused = true;
        continue;
      }
      lat.push_back(static_cast<double>(q.done_ns - q.ref_ns) * 1e-6);
      if (q.done_ns <= deadline) ++r.completed_in_time;
    }
    r.lateness_p99_ms = Percentile(run.step_lateness_s[s], 0.99) * 1e3;
    r.p50_ms = Percentile(lat, 0.5);
    r.p99_ms = Percentile(lat, 0.99);
    r.slo_ok = !refused && r.p99_ms <= 20.0 &&
               static_cast<double>(r.completed_in_time) >=
                   0.99 * static_cast<double>(r.offered);
    if (r.slo_ok) max_ok = std::max(max_ok, r.qps);
    out->steps.push_back(r);
  }
  out->diagnostics.push_back(
      {"max_qps_at_slo", max_ok, "queries/s", "higher", out->steps.size()});
}

/// churn_durable's write side, then a restart: the stopped primary's WAL
/// recovered into a fresh index must reproduce its live rows exactly.
void AddChurnMetrics(const LoadResult& run, const Data& data,
                     const std::vector<uint64_t>& epochs_before,
                     Serving* serving, RunOutput* out) {
  std::vector<Sample> mutation;
  std::vector<double> mutation_ms;
  for (const MutationRecord& m : run.mutations) {
    if (!m.ok || !m.measured) continue;
    mutation.push_back(
        {m.ref_ns, static_cast<double>(m.done_ns - m.ref_ns) * 1e-6});
    mutation_ms.push_back(mutation.back().ms);
  }
  const std::vector<uint64_t> epochs_after = EpochSequences(*serving->index);
  uint64_t fewest = UINT64_MAX;
  for (size_t i = 0; i < epochs_after.size(); ++i) {
    fewest = std::min(fewest, epochs_after[i] - epochs_before[i]);
  }
  out->diagnostics.insert(
      out->diagnostics.end(),
      {{"mut_per_s", Rate(mutation, run.measure_start_ns), "mutations/s",
        "higher", mutation.size()},
       {"mutation_p50_ms", Percentile(mutation_ms, 0.5), "ms", "lower",
        mutation_ms.size()},
       {"mutation_p99_ms",
        SlicedP99(mutation, run.measure_start_ns, run.measure_end_ns), "ms",
        "lower", mutation_ms.size()},
       {"checkpoints",
        static_cast<double>(run.stats_end.checkpoints -
                            run.stats_start.checkpoints),
        "count", "higher", 0},
       {"min_consolidations_per_shard", static_cast<double>(fewest), "count",
        "higher", 0}});

  serving->wal.reset();
  ShardedIndex recovered(serving->factory, serving->index_options);
  const uint64_t start = NowNs();
  if (WriteAheadLog::ListCheckpoints(serving->wal_dir).empty()) {
    recovered.Build(data.base);
  }
  {
    WriteAheadLog log(serving->wal_dir, GroupCommit());
    log.Recover(&recovered);
  }
  out->diagnostics.push_back(
      {"recover_s", Seconds(NowNs() - start), "s", "lower", 0});
  if (!SameLiveState(recovered, *serving->index)) {
    out->problems.push_back("recovered LiveVectors differ from the primary");
  }
}

/// The traced replay and the server-level counters of the untraced phase.
void AddLayerMetrics(const Options& opt, const WorkloadSpec& spec,
                     const LoadResult& run, const Data& data,
                     const lccs::storage::VectorStore& pool,
                     const std::vector<uint64_t>& epochs_before,
                     double query_p50_ms, const std::string& work_dir,
                     Serving* serving, RunOutput* out) {
  ProbeInput in;
  // Window composition of the untraced phase, in batch_id order.
  std::vector<const QueryRecord*> answered;
  for (const QueryRecord& q : run.queries) {
    if (q.ok) answered.push_back(&q);
  }
  std::sort(answered.begin(), answered.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->batch_id < b->batch_id;
            });
  for (size_t i = 0; i < answered.size(); ++i) {
    if (i == 0 || answered[i]->batch_id != answered[i - 1]->batch_id) {
      in.windows.emplace_back();
    }
    in.windows.back().push_back(answered[i]->pool_index);
  }
  in.data = &data.base;
  in.index = serving->index.get();
  in.factory = serving->factory;
  in.index_options = serving->index_options;
  in.lccs = serving->lccs;
  in.pool = &pool;
  in.mutation_log = spec.durable ? &run : nullptr;
  in.work_dir = work_dir;
  in.seed = opt.seed;
  in.replay_seconds = opt.smoke ? 0.2 : 2.0;
  in.probe_queries = opt.smoke ? 64 : 128;
  in.rebuild_threshold = spec.rebuild_threshold;
  Tracer tracer(true);
  ProbeOutput probes = RunProbes(in, &tracer);
  tracer.WriteChromeTrace(opt.out_dir + "/" + spec.name + ".trace.json",
                          spec.name);
  out->problems.insert(out->problems.end(), probes.problems.begin(),
                       probes.problems.end());
  out->calls = std::move(probes.calls);

  const lccs::serve::Server::Stats& s0 = run.stats_start;
  const lccs::serve::Server::Stats& s1 = run.stats_end;
  const uint64_t batches = s1.batches - s0.batches;
  const double per_batch =
      batches > 0 ? 1.0 / static_cast<double>(batches) : 0.0;
  double exec_ms = 0.0;
  for (const Metric& m : probes.metrics) {
    if (m.name == "serve.window_exec_ms") exec_ms = m.value;
  }
  const std::vector<uint64_t> epochs_after = EpochSequences(*serving->index);
  const auto sum = [](const std::vector<uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), uint64_t{0});
  };
  out->layer = {
      {"serve.window_occupancy",
       static_cast<double>(s1.queries_served - s0.queries_served) * per_batch,
       "count", "higher", batches},
      {"serve.windows_deadline_frac",
       static_cast<double>(s1.windows_closed_deadline -
                           s0.windows_closed_deadline) *
           per_batch,
       "fraction", "lower", batches},
      {"serve.queue_wait_ms", query_p50_ms - exec_ms, "ms", "lower", 0},
      {"serve.refused", static_cast<double>(s1.rejected - s0.rejected),
       "count", "lower", 0},
      {"core.consolidations",
       static_cast<double>(sum(epochs_after) - sum(epochs_before)), "count",
       "lower", 0},
  };
  for (Metric& m : probes.metrics) out->layer.push_back(std::move(m));
}

RunOutput RunWorkload(const Options& opt, const std::string& workload) {
  const WorkloadSpec spec = MakeSpec(workload, opt);
  RunOutput out;
  const std::string work_dir =
      opt.out_dir + "/work_" + workload + "_" + std::to_string(::getpid());
  RemoveTree(work_dir);
  MakeDirs(work_dir);

  Data data = PrepareData(spec, opt.cache_dir);
  const lccs::storage::InMemoryStore pool{data.queries};
  Serving serving;
  serving.lccs = spec.lccs;
  if (spec.w_from_data) {
    serving.lccs.w = 4.0 * lccs::eval::EstimateDistanceScale(data.base);
  }
  serving.factory = [params = serving.lccs] {
    return std::make_unique<lccs::baselines::LccsLshIndex>(params);
  };
  serving.index_options.num_shards = 4;
  serving.index_options.metric = spec.data.metric;
  serving.index_options.dim = spec.data.dim;
  serving.index_options.rebuild_threshold = spec.rebuild_threshold;
  serving.index_options.quantize = spec.disk;
  serving.wal_dir = work_dir + "/wal";

  ResetPeakRss();
  const std::vector<double> setup_s =
      SetUp(spec, opt.trace ? 1 : 3, &data, &serving);

  lccs::serve::Server::Options server_options;
  server_options.max_batch = kMaxBatch;
  server_options.max_delay_us = 1000;
  server_options.max_queue = spec.max_queue;
  server_options.wal = serving.wal.get();
  server_options.checkpoint_every = spec.durable ? 4000 : 0;
  const std::vector<uint64_t> epochs_before = EpochSequences(*serving.index);
  LoadResult run;
  double peak_rss_mb = 0.0;
  {
    lccs::serve::Server server(serving.index.get(), server_options);
    run = RunLoad(server, spec.load, pool, *data.base.data.get());
    peak_rss_mb = PeakRssMb();
    server.Stop();
  }

  // --- End-to-end metrics from the untraced phase.
  std::vector<Sample> answered;  // every measured answer
  std::vector<Sample> latency;   // those of the latency-reporting step
  double recall_sum = 0.0;
  for (const QueryRecord& q : run.queries) {
    out.attempted += q.measured;
    if (!q.ok || !q.measured) continue;
    answered.push_back(
        {q.ref_ns, static_cast<double>(q.done_ns - q.ref_ns) * 1e-6});
    if (!spec.load.open_loop || q.step == static_cast<int>(spec.base_step)) {
      latency.push_back(answered.back());
    }
    recall_sum += Overlap(run.neighbor_ids.data() + q.ids_offset,
                          data.gt.data() + q.pool_index * kK);
  }
  for (const MutationRecord& m : run.mutations) out.attempted += m.measured;
  out.failed = run.failed + run.refused + run.malformed;
  double recall = answered.empty()
                      ? 0.0
                      : recall_sum / static_cast<double>(answered.size());
  size_t recall_samples = answered.size();
  if (spec.durable) {
    CheckMutationLog(run, &out.problems);
    recall = ChurnRecall(run, data.base, data.queries, opt.seed,
                         &recall_samples, &out.problems);
  }
  std::vector<double> latency_ms;
  for (const Sample& s : latency) latency_ms.push_back(s.ms);
  const double query_p50_ms = Percentile(latency_ms, 0.50);
  out.end_to_end = {
      {"setup_s", Median(setup_s), "s", "lower", setup_s.size()},
      {"qps", Rate(answered, run.measure_start_ns), "queries/s", "higher",
       answered.size()},
      {"query_p50_ms", query_p50_ms, "ms", "lower", latency_ms.size()},
      {"recall_at_10", recall, "fraction", "higher", recall_samples},
      {"peak_rss_mb", peak_rss_mb, "MB", "lower", 0},
  };
  // Tail latency is reported but not gated: on read_sweep its run-to-run
  // spread exceeded the widest allowed bound (README.md). Its slices span
  // the step that reports latency.
  const uint64_t latency_start = spec.load.open_loop
                                     ? run.step_start_ns[spec.base_step]
                                     : run.measure_start_ns;
  const uint64_t latency_end = spec.load.open_loop
                                   ? run.step_start_ns[spec.base_step + 1]
                                   : run.measure_end_ns;
  out.diagnostics = {
      {"query_p99_ms", SlicedP99(latency, latency_start, latency_end), "ms",
       "lower", latency_ms.size()},
      {"error_rate",
       out.attempted > 0 ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "fraction", "lower", out.attempted},
  };
  if (spec.load.open_loop) {
    // Latency runs from the due time, so a late generator never hides
    // latency; it can only under-offer load. The run is invalid when the
    // step whose latencies are reported was not offered on time.
    const std::vector<double>& late = run.step_lateness_s[spec.base_step];
    const double lateness_ms = Percentile(late, 0.99) * 1e3;
    out.generator_valid = lateness_ms <= 1.0;
    out.diagnostics.push_back({"generator_lateness_p99_ms", lateness_ms, "ms",
                               "lower", late.size()});
  }
  if (spec.name == "read_sweep") AddSweepSteps(spec, run, &out);
  if (spec.durable) {
    AddChurnMetrics(run, data, epochs_before, &serving, &out);
  }
  if (run.malformed > 0) {
    out.problems.push_back(std::to_string(run.malformed) +
                           " malformed responses (first: " +
                           run.first_malformed + ")");
  }
  if (recall < 0.5) {
    out.problems.push_back("recall@10 " + std::to_string(recall) +
                           " is below 0.5");
  }

  if (opt.trace) {
    AddLayerMetrics(opt, spec, run, data, pool, epochs_before, query_p50_ms,
                    work_dir, &serving, &out);
  }
  serving.index.reset();
  RemoveTree(work_dir);
  return out;
}

// --- Reporting ---------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-40s %14.6g %-10s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
    std::printf("\n");
  }
}

void WriteMetricsJson(std::FILE* f, const std::vector<Metric>& metrics,
                      const char* kind, bool* first) {
  for (const Metric& m : metrics) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                 "\"better\": \"%s\", \"kind\": \"%s\", \"samples\": %zu}",
                 *first ? "" : ",", m.name.c_str(), Num(m.value).c_str(),
                 m.unit.c_str(), m.better.c_str(), kind, m.samples);
    *first = false;
  }
}

/// The full result, read by compare.py: every metric with its unit and
/// direction, the sweep steps and the span statistics.
void WriteResultJson(const Options& opt, const std::string& workload,
                     const RunOutput& r) {
  const std::string path = opt.out_dir + "/" + workload + ".result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"seconds\": %s,\n  \"trace\": %d,\n  \"smoke\": %s,\n"
               "  \"num_cpus\": %u,\n  \"correct\": %s,\n"
               "  \"generator_valid\": %s,\n  \"attempted\": %zu,\n"
               "  \"failed\": %zu,\n  \"problems\": [",
               workload.c_str(), static_cast<unsigned long long>(opt.seed),
               Num(opt.seconds).c_str(), opt.trace ? 1 : 0,
               opt.smoke ? "true" : "false",
               std::thread::hardware_concurrency(),
               r.problems.empty() ? "true" : "false",
               r.generator_valid ? "true" : "false", r.attempted, r.failed);
  for (size_t i = 0; i < r.problems.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 JsonEscape(r.problems[i]).c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": {");
  bool first = true;
  WriteMetricsJson(f, r.end_to_end, "end_to_end", &first);
  WriteMetricsJson(f, r.diagnostics, "diagnostic", &first);
  WriteMetricsJson(f, r.layer, "per_layer", &first);
  std::fprintf(f, "\n  },\n  \"steps\": [");
  for (size_t i = 0; i < r.steps.size(); ++i) {
    const StepResult& s = r.steps[i];
    std::fprintf(f,
                 "%s\n    {\"offered_qps\": %s, \"offered\": %zu, "
                 "\"completed_in_time\": %zu, \"p50_ms\": %s, \"p99_ms\": %s, "
                 "\"generator_lateness_p99_ms\": %s, \"slo_ok\": %s}",
                 i ? "," : "", Num(s.qps).c_str(), s.offered,
                 s.completed_in_time, Num(s.p50_ms).c_str(),
                 Num(s.p99_ms).c_str(), Num(s.lateness_p99_ms).c_str(),
                 s.slo_ok ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n  \"calls\": {");
  first = true;
  for (const auto& [name, c] : r.calls) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"calls\": %zu, \"busy_s\": %s, "
                 "\"p50_s\": %s, \"p99_s\": %s}",
                 first ? "" : ",", name.c_str(), c.calls,
                 Num(c.busy_s).c_str(), Num(c.p50).c_str(),
                 Num(c.p99).c_str());
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void PrintReport(const Options& opt, const std::string& workload,
                 const RunOutput& r) {
  std::printf("\n== %s (seed %llu, %.3g s, trace %d)%s\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.smoke ? " [smoke]" : "");
  PrintMetrics("end-to-end", r.end_to_end);
  PrintMetrics("diagnostics", r.diagnostics);
  if (!r.steps.empty()) {
    std::printf("  sweep steps (SLO: p99 <= 20 ms, >= 99%% answered within "
                "the step + 1 s, none refused)\n");
    for (const StepResult& s : r.steps) {
      std::printf("    %5.0f qps  offered %6zu  in time %6zu  p50 %8.3f ms  "
                  "p99 %8.3f ms  late p99 %6.3f ms  %s\n",
                  s.qps, s.offered, s.completed_in_time, s.p50_ms, s.p99_ms,
                  s.lateness_p99_ms, s.slo_ok ? "ok" : "MISSED");
    }
  }
  PrintMetrics("per-layer (traced replay, self times)", r.layer);
  if (!r.calls.empty()) {
    std::printf("  spans: %-32s %8s %10s %12s %12s\n", "name", "calls",
                "busy_s", "p50_us", "p99_us");
    for (const auto& [name, c] : r.calls) {
      std::printf("         %-32s %8zu %10.4f %12.2f %12.2f\n", name.c_str(),
                  c.calls, c.busy_s, c.p50 * 1e6, c.p99 * 1e6);
    }
  }
  if (!r.generator_valid) {
    std::printf("  INVALID RUN: generator lateness p99 exceeds 1 ms in the "
                "reported step\n");
  }
  for (const std::string& p : r.problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
}

/// The child's hand-off to the parent: what the final JSON line needs.
void WriteSummary(const std::string& path, const RunOutput& r, bool trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "correct %d\nattempted %zu\nfailed %zu\n",
               r.problems.empty() ? 1 : 0, r.attempted, r.failed);
  for (const Metric& m : trace ? r.layer : r.end_to_end) {
    std::fprintf(f, "metric %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                 m.unit.c_str());
  }
  std::fclose(f);
}

struct Summary {
  bool correct = false;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
};

bool ReadSummary(const std::string& path, Summary* s) {
  std::ifstream in(path);
  std::string key;
  int correct = 0;
  if (!(in >> key >> correct) || key != "correct") return false;
  if (!(in >> key >> s->attempted) || key != "attempted") return false;
  if (!(in >> key >> s->failed) || key != "failed") return false;
  s->correct = correct == 1;
  Metric m;
  while (in >> key >> m.name >> m.value >> m.unit) s->metrics.push_back(m);
  return true;
}

int RunChild(const Options& opt, const std::string& workload) {
  try {
    const RunOutput r = RunWorkload(opt, workload);
    PrintReport(opt, workload, r);
    WriteResultJson(opt, workload, r);
    WriteSummary(opt.out_dir + "/" + workload + ".summary", r, opt.trace);
    std::fflush(stdout);
    return r.problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", workload.c_str(), e.what());
    return 2;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: lccs_bench [--workload read_saturated|read_sweep|"
               "churn_durable|disk_quantized|all] [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--cache DIR] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--cache") {
      opt.cache_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return Usage();
    }
  }
  if (opt.smoke) opt.seconds = 1.0;
  if (!(opt.seconds > 0.0)) return Usage();
  if (opt.cache_dir.empty()) opt.cache_dir = opt.out_dir + "/cache";
  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w) workloads.push_back(w);
  }
  if (workloads.empty()) return Usage();
  MakeDirs(opt.out_dir);
  MakeDirs(opt.cache_dir);

  // One forked child per workload: each gets a fresh address space, so
  // peak RSS and the thread pool are its own.
  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  for (const std::string& w : workloads) {
    std::fflush(stdout);
    const std::string summary_path = opt.out_dir + "/" + w + ".summary";
    std::remove(summary_path.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      const int code = RunChild(opt, w);
      std::fflush(stdout);
      ::_exit(code);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) > 1) {
      std::fprintf(stderr, "%s: child did not finish\n", w.c_str());
      return 1;
    }
    Summary s;
    if (!ReadSummary(summary_path, &s)) {
      std::fprintf(stderr, "%s: no summary\n", w.c_str());
      return 1;
    }
    std::remove(summary_path.c_str());
    correct = correct && s.correct;
    attempted += s.attempted;
    failed += s.failed;
    for (Metric& m : s.metrics) {
      if (workloads.size() > 1) m.name = w + "." + m.name;
      metrics.push_back(m);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", std::max<size_t>(attempted, 1),
              failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), Num(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lccs_bench

int main(int argc, char** argv) {
  try {
    return lccs_bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lccs_bench: %s\n", e.what());
    return 2;
  }
}
