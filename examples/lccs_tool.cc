// lccs_tool — a small command-line frontend for building, persisting and
// querying LCCS-LSH indexes over .fvecs files (the format the paper's
// datasets ship in). What an OSS release of the system would install as its
// CLI.
//
//   lccs_tool build <base.fvecs> <index.lccs> [m] [w] [metric]
//       Builds an index over the base vectors and saves its descriptor
//       (hash family, seed, m, w, metric, probe parameters and n: the
//       file is 81 bytes whatever n is).
//       metric: euclidean (default) | angular.
//
//   lccs_tool query <base.fvecs> <index.lccs> <queries.fvecs> [k] [lambda]
//       Rebuilds the index from its descriptor over the base vectors,
//       answers each query, prints ids and distances.
//
//   lccs_tool convert <in.fvecs|in.bvecs> <out.flat>
//       Streams a TEXMEX file into the LCCS flat format (O(dim) memory).
//
//   lccs_tool wal-dump <wal_dir>
//       Inspects a serve::WriteAheadLog directory: checkpoints, segments,
//       per-segment record ranges, quarantined .orphan segments, and the
//       exact byte offset of any torn or corrupt suffix — what you reach
//       for before trusting a recovery.
//
//   lccs_tool replica <host> <port> [shards=2] [seconds=10]
//       Attaches a read-only serve::Replica to a running primary's
//       serve::LogShipper, tails its WAL stream and prints replication
//       lag once a second — a live follower in one command.
//
//   lccs_tool demo
//       Self-contained round trip on synthetic data (no files needed).
//
// Everywhere a <base> file is expected, a .flat file produced by `convert`
// works too: it is served zero-copy through a memory-mapped
// storage::MmapStore (validated header + checksum) instead of being loaded
// into RAM — the way to run paper-scale bases on small machines.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/linear_scan.h"
#include "core/serialize.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "eval/workloads.h"
#include "serve/replication.h"
#include "serve/wal.h"
#include "storage/mmap_store.h"
#include "util/timer.h"

namespace {

using namespace lccs;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lccs_tool build <base.fvecs|base.flat> <index.lccs> "
               "[m=64] [w=auto] [metric=euclidean]\n"
               "  lccs_tool query <base.fvecs|base.flat> <index.lccs> "
               "<queries.fvecs> [k=10] [lambda=200]\n"
               "  lccs_tool convert <in.fvecs|in.bvecs> <out.flat>\n"
               "  lccs_tool wal-dump <wal_dir>\n"
               "  lccs_tool replica <host> <port> [shards=2] [seconds=10]\n"
               "  lccs_tool demo\n");
  return 2;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Loads a base file either as a heap matrix (.fvecs) or as a zero-copy
/// memory-mapped store (.flat).
storage::VectorStoreRef LoadBase(const std::string& path) {
  if (EndsWith(path, ".flat")) {
    return storage::MmapStore::Open(path);
  }
  return dataset::ReadFvecs(path);
}

/// Unit-normalizes the base set for angular metrics, flagging the hidden
/// cost when that set was memory-mapped (copy-on-write clones it to heap).
void NormalizeForAngular(dataset::Dataset* data, const std::string& base_path) {
  if (EndsWith(base_path, ".flat")) {
    std::fprintf(stderr,
                 "note: angular metric normalizes the base set, which "
                 "copies the whole mapped file onto the heap — store "
                 "pre-normalized vectors in the .flat file to keep the "
                 "mmap footprint\n");
  }
  data->NormalizeAll();
}

util::Metric ParseMetric(const char* name) {
  if (std::strcmp(name, "angular") == 0) return util::Metric::kAngular;
  if (std::strcmp(name, "euclidean") == 0) return util::Metric::kEuclidean;
  throw std::runtime_error(std::string("unsupported metric: ") + name);
}

int Build(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string base_path = argv[2];
  const std::string index_path = argv[3];
  const size_t m = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 64;
  double w = argc > 5 ? std::strtod(argv[5], nullptr) : 0.0;
  const util::Metric metric =
      argc > 6 ? ParseMetric(argv[6]) : util::Metric::kEuclidean;

  std::printf("reading %s ...\n", base_path.c_str());
  dataset::Dataset data;
  data.data = LoadBase(base_path);
  data.metric = metric;
  if (metric == util::Metric::kAngular) NormalizeForAngular(&data, base_path);
  std::printf("%zu vectors, d=%zu\n", data.n(), data.dim());
  if (w <= 0.0) {
    w = 2.0 * eval::EstimateDistanceScale(data);
    std::printf("auto bucket width w=%.3f\n", w);
  }

  core::IndexDescriptor descriptor;
  descriptor.family = lsh::DefaultFamilyFor(metric);
  descriptor.metric = metric;
  descriptor.dim = data.dim();
  descriptor.m = m;
  descriptor.w = w;
  descriptor.seed = 42;

  auto family = lsh::MakeFamily(descriptor.family, data.dim(), m, w,
                                descriptor.seed);
  core::LccsLsh index(std::move(family), metric, descriptor.probes);
  util::Timer timer;
  index.Build(data.data.data(), data.n(), data.dim());
  std::printf("built in %.2f s (index %.1f MB)\n", timer.ElapsedSeconds(),
              static_cast<double>(index.SizeBytes()) / (1024.0 * 1024.0));
  core::SaveIndex(index_path, descriptor, index.n());
  std::printf("saved to %s\n", index_path.c_str());
  return 0;
}

int QueryCmd(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string base_path = argv[2];
  const std::string index_path = argv[3];
  const std::string query_path = argv[4];
  const size_t k = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 10;
  const size_t lambda = argc > 6 ? std::strtoul(argv[6], nullptr, 10) : 200;

  dataset::Dataset data;
  data.data = LoadBase(base_path);
  const auto queries = dataset::ReadFvecs(query_path);
  // Normalization must happen BEFORE LoadIndex exports the raw base
  // pointer: NormalizeAll's copy-on-write would otherwise swap the store
  // out from under the bound index (unmapping a .flat base entirely).
  // Peeking the descriptor tells us the metric without binding anything.
  data.metric = core::ReadIndexDescriptor(index_path).metric;
  if (data.metric == util::Metric::kAngular) {
    NormalizeForAngular(&data, base_path);
  }
  util::Timer timer;
  auto index = core::LoadIndex(index_path, data.data.data(), data.data.rows(),
                               data.data.cols());
  std::printf("rebuilt index in %.2f s: n=%zu m=%zu metric=%s\n",
              timer.ElapsedSeconds(), index->n(), index->m(),
              util::MetricName(index->metric()).c_str());

  timer.Restart();
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto answers = index->Query(queries.Row(q), k, lambda);
    std::printf("query %zu:", q);
    for (const auto& nb : answers) {
      std::printf(" (%d, %.4f)", nb.id, nb.dist);
    }
    std::printf("\n");
  }
  std::printf("%.3f ms/query average\n",
              timer.ElapsedMillis() / static_cast<double>(queries.rows()));
  return 0;
}

int Convert(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  util::Timer timer;
  const storage::FlatHeader header =
      EndsWith(in_path, ".bvecs")
          ? dataset::ConvertBvecsToFlat(in_path, out_path)
          : dataset::ConvertFvecsToFlat(in_path, out_path);
  std::printf("wrote %s: %llu x %llu floats, checksum %016llx (%.2f s)\n",
              out_path.c_str(),
              static_cast<unsigned long long>(header.rows),
              static_cast<unsigned long long>(header.cols),
              static_cast<unsigned long long>(header.checksum),
              timer.ElapsedSeconds());
  return 0;
}

int WalDump(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[2];

  const auto checkpoints = serve::WriteAheadLog::ListCheckpoints(dir);
  std::printf("%zu checkpoint(s)\n", checkpoints.size());
  for (const auto& ckpt : checkpoints) {
    try {
      const auto state = serve::WriteAheadLog::ReadCheckpoint(ckpt.path);
      std::printf(
          "  %s: version %llu, next_id %d, %zu live rows, d=%zu, %s\n",
          ckpt.path.c_str(), static_cast<unsigned long long>(ckpt.version),
          state.next_id, state.ids.size(), state.dim,
          util::MetricName(state.metric).c_str());
    } catch (const std::exception& e) {
      std::printf("  %s: INVALID (%s)\n", ckpt.path.c_str(), e.what());
    }
  }

  const auto segments = serve::WriteAheadLog::ListSegments(dir);
  std::printf("%zu segment(s)\n", segments.size());
  uint64_t expected_next = 0;
  for (const auto& segment : segments) {
    uint64_t inserts = 0, removes = 0;
    const auto scan = serve::WriteAheadLog::ScanSegment(
        segment.path,
        [&](const serve::WriteAheadLog::Record& record, uint64_t) {
          (record.is_insert ? inserts : removes) += 1;
        });
    std::printf("  %s: versions %llu..%llu (%llu records: %llu inserts, "
                "%llu removes), %llu valid bytes%s\n",
                segment.path.c_str(),
                static_cast<unsigned long long>(scan.first_version),
                static_cast<unsigned long long>(scan.last_version),
                static_cast<unsigned long long>(scan.records),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(removes),
                static_cast<unsigned long long>(scan.valid_bytes),
                scan.clean ? "" : " [TORN]");
    if (!scan.clean) {
      std::printf("    torn/corrupt suffix at byte %llu: %s\n",
                  static_cast<unsigned long long>(scan.valid_bytes),
                  scan.error.c_str());
    }
    if (expected_next != 0 && scan.first_version != expected_next) {
      std::printf("    WARNING: gap — previous segment ended at %llu\n",
                  static_cast<unsigned long long>(expected_next - 1));
    }
    expected_next = scan.last_version + 1;
  }
  const auto orphans = serve::WriteAheadLog::ListOrphans(dir);
  if (!orphans.empty()) {
    std::printf("%zu quarantined orphan segment(s) — stranded past a "
                "recovery hole, kept for salvage:\n",
                orphans.size());
    for (const auto& orphan : orphans) {
      std::printf("  %s\n", orphan.c_str());
    }
  }
  if (!segments.empty() || !checkpoints.empty()) {
    const uint64_t checkpoint_version =
        checkpoints.empty() ? 0 : checkpoints.back().version;
    std::printf("recovery would restore checkpoint %llu and land on "
                "version %llu\n",
                static_cast<unsigned long long>(checkpoint_version),
                static_cast<unsigned long long>(
                    expected_next > 0 ? expected_next - 1
                                      : checkpoint_version));
  }
  return 0;
}

int ReplicaCmd(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string host = argv[2];
  const uint16_t port =
      static_cast<uint16_t>(std::strtoul(argv[3], nullptr, 10));
  const size_t shards = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 2;
  const size_t seconds = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 10;

  serve::Replica::Options options;
  options.factory = [] { return std::make_unique<baselines::LinearScan>(); };
  options.num_shards = shards;
  serve::Replica replica(host, port, options);
  replica.Start();
  std::printf("tailing %s:%u (%zu shards) for %zu s ...\n", host.c_str(),
              port, shards, seconds);
  for (size_t s = 0; s < seconds; ++s) {
    ::sleep(1);
    const serve::Replica::Progress p = replica.progress();
    if (!p.error.empty()) {
      std::fprintf(stderr, "replica poisoned: %s\n", p.error.c_str());
      return 1;
    }
    std::printf("  applied %llu / primary %llu (lag %llu records, %llu "
                "bytes), %llu applied lifetime, %llu bootstrap(s), "
                "%llu reconnect(s)%s\n",
                static_cast<unsigned long long>(p.applied_version),
                static_cast<unsigned long long>(p.primary_version),
                static_cast<unsigned long long>(p.lag_records),
                static_cast<unsigned long long>(p.lag_bytes),
                static_cast<unsigned long long>(p.records_applied),
                static_cast<unsigned long long>(p.bootstraps),
                static_cast<unsigned long long>(p.reconnects),
                p.connected ? "" : " [disconnected]");
  }
  replica.Stop();
  const serve::Replica::Progress p = replica.progress();
  std::printf("final state: version %llu, %zu live rows\n",
              static_cast<unsigned long long>(p.applied_version),
              replica.index()->live_count());
  return 0;
}

int Demo() {
  std::printf("demo: synthetic 5000x32 dataset, save + load round trip\n");
  auto config = dataset::SiftAnalogue(5000, 5);
  config.dim = 32;
  const auto data = dataset::GenerateClustered(config);
  const std::string base = "/tmp/lccs_demo_base.fvecs";
  const std::string queries = "/tmp/lccs_demo_queries.fvecs";
  const std::string index = "/tmp/lccs_demo.lccs";
  dataset::WriteFvecs(base, data.data);
  dataset::WriteFvecs(queries, data.queries);
  char* build_argv[] = {const_cast<char*>("lccs_tool"),
                        const_cast<char*>("build"),
                        const_cast<char*>(base.c_str()),
                        const_cast<char*>(index.c_str())};
  if (Build(4, build_argv) != 0) return 1;
  char* query_argv[] = {const_cast<char*>("lccs_tool"),
                        const_cast<char*>("query"),
                        const_cast<char*>(base.c_str()),
                        const_cast<char*>(index.c_str()),
                        const_cast<char*>(queries.c_str())};
  return QueryCmd(5, query_argv);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return Usage();
    if (std::strcmp(argv[1], "build") == 0) return Build(argc, argv);
    if (std::strcmp(argv[1], "query") == 0) return QueryCmd(argc, argv);
    if (std::strcmp(argv[1], "convert") == 0) return Convert(argc, argv);
    if (std::strcmp(argv[1], "wal-dump") == 0) return WalDump(argc, argv);
    if (std::strcmp(argv[1], "replica") == 0) return ReplicaCmd(argc, argv);
    if (std::strcmp(argv[1], "demo") == 0) return Demo();
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
