#ifndef LCCS_BENCH_LOADGEN_H_
#define LCCS_BENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "storage/vector_store.h"
#include "util/random.h"

namespace lccs_bench {

/// One open-loop step: evenly spaced arrivals at `qps` for `seconds`.
struct Step {
  double qps = 0.0;
  double seconds = 0.0;
  bool measured = true;  ///< false: warm-up, excluded from every metric
};

/// What one load run offers the server. Load comes from one submitter
/// thread (the caller) plus one FIFO collector thread per request kind: the
/// server finishes windows in admission order and the writer acks in
/// admission order, so waiting on the oldest outstanding future observes
/// every completion as it happens.
struct LoadSpec {
  bool open_loop = false;
  // Closed loop: `in_flight` requests outstanding at all times; a warm-up
  // of `warmup_s`, then `measure_s` measured.
  size_t in_flight = 0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  // Open loop: the arrival schedule.
  std::vector<Step> steps;
  // Request mix; the rest are queries.
  double insert_fraction = 0.0;
  double remove_fraction = 0.0;
  size_t k = 10;
  size_t max_batch = 64;  ///< for the response shape check
  uint64_t seed = 1;
};

struct QueryRecord {
  uint32_t pool_index = 0;
  int32_t step = -1;
  bool measured = false;
  bool ok = false;       ///< answered (not refused/failed)
  uint64_t ref_ns = 0;   ///< due time (open loop) or submit time (closed)
  uint64_t done_ns = 0;
  uint64_t batch_id = 0;
  uint64_t state_version = 0;
  size_t ids_offset = 0;  ///< into LoadResult::neighbor_ids (k entries)
};

struct MutationRecord {
  bool is_insert = false;
  bool measured = false;
  bool ok = false;
  int32_t id = -1;
  uint64_t version = 0;
  uint64_t ref_ns = 0;
  uint64_t done_ns = 0;
  int64_t payload = -1;  ///< insert: row in LoadResult::insert_payloads
};

struct LoadResult {
  std::vector<QueryRecord> queries;  ///< admission order
  std::vector<int32_t> neighbor_ids;
  std::vector<MutationRecord> mutations;  ///< admission order
  std::vector<float> insert_payloads;     ///< row-major, dim floats each
  /// Open loop: when each step began, plus the end of the last one.
  std::vector<uint64_t> step_start_ns;
  /// Open loop, per step: how late each arrival was submitted.
  std::vector<std::vector<double>> step_lateness_s;
  uint64_t measure_start_ns = 0;
  uint64_t measure_end_ns = 0;
  lccs::serve::Server::Stats stats_start;  ///< at the measured start
  lccs::serve::Server::Stats stats_end;    ///< after the drain
  size_t refused = 0;    ///< "server overloaded" admissions (measured)
  size_t failed = 0;     ///< any other broken future (measured)
  size_t malformed = 0;  ///< responses failing the shape checks (all)
  std::string first_malformed;
};

/// An insert payload: `row` plus N(0, 0.1) noise per coordinate, so it
/// lands next to an existing point of the mixture.
void PerturbRow(const float* row, size_t dim, lccs::util::Rng* rng,
                float* out);

/// Runs `spec` against `server`. Queries are rows of `pool`, taken in
/// passes that each follow a fresh seeded permutation; inserts are
/// perturbed rows of `base`; removes target a uniformly drawn live id (a
/// base row not yet removed, or an insert already acked), so every remove
/// must apply. Returns after every submitted request has completed.
LoadResult RunLoad(lccs::serve::Server& server, const LoadSpec& spec,
                   const lccs::storage::VectorStore& pool,
                   const lccs::storage::VectorStore& base);

}  // namespace lccs_bench

#endif  // LCCS_BENCH_LOADGEN_H_
