#ifndef LCCS_BENCH_PROBES_H_
#define LCCS_BENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "dataset/dataset.h"
#include "loadgen.h"
#include "serve/sharded_index.h"
#include "trace.h"

namespace lccs_bench {

/// Everything the traced replay needs from one workload's untraced phase.
struct ProbeInput {
  const lccs::dataset::Dataset* data = nullptr;  ///< the served base set
  lccs::serve::ShardedIndex* index = nullptr;    ///< serving index, idle
  lccs::core::DynamicIndex::Factory factory;
  lccs::serve::ShardedIndex::Options index_options;
  lccs::baselines::LccsLshIndex::Params lccs;
  const lccs::storage::VectorStore* pool = nullptr;
  /// Window composition of the untraced phase: pool rows per batch_id.
  std::vector<std::vector<uint32_t>> windows;
  /// The recorded mutation log (churn) to replay into a fresh index and
  /// WAL; null means a seeded synthetic log over shard 0's slice.
  const LoadResult* mutation_log = nullptr;
  std::string work_dir;  ///< WAL and checkpoint files go below it
  uint64_t seed = 1;
  double replay_seconds = 1.0;  ///< per window-replay pass
  size_t probe_queries = 128;
  size_t rebuild_threshold = 1024;
};

struct ProbeOutput {
  std::vector<Metric> metrics;
  std::map<std::string, CallStats> calls;  ///< per span name, self times
  std::vector<std::string> problems;       ///< failed consistency checks
};

/// The traced replay: times the public entry points of every layer from
/// outside, with spans recorded into `tracer`, and derives the per-layer
/// metrics from the spans' self times.
ProbeOutput RunProbes(const ProbeInput& in, Tracer* tracer);

/// Deletes a directory tree (WAL and work directories); missing is fine.
void RemoveTree(const std::string& dir);

/// Same live ids in the same order with bit-identical vectors.
bool SameLiveState(const lccs::serve::ShardedIndex& a,
                   const lccs::serve::ShardedIndex& b);

}  // namespace lccs_bench

#endif  // LCCS_BENCH_PROBES_H_
