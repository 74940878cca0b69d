// Black-box snapshot-isolation checker for the serving engine
// (serve::Server over serve::ShardedIndex), plus deterministic
// batching-window tests and a TSAN-targeted multi-client stress suite.
//
// The consistency contract under test: mutations apply in admission order
// on a writer thread (MutationResponse::state_version names each one's
// dense log position) while batching windows execute concurrently against
// immutable snapshots. Every query in a batch observes *exactly* the
// mutation prefix 1..QueryResponse::state_version — one atomic cut, taken
// somewhere between the query's admission and its window's execution. The
// checker is *black-box*: it records only what clients submitted and what
// the futures resolved to, then demands
//   * the mutation log be a dense total order with monotone insert ids;
//   * batch versions be monotone in batch_id and consistent within a batch;
//   * each query's version respect its session: at least every mutation the
//     client had seen acked before submitting (session_floor), and strictly
//     before any mutation the client had acked only after receiving the
//     response (session_ceiling);
//   * every batch be exactly reproducible — same ids, bit-identical
//     distances — by a sequential oracle that replays mutations
//     1..state_version and brute-forces the survivors.
// Shard configurations run in exhaustive-verification mode (as in
// tests/test_dynamic_index.cc), so "reproducible" means bit-identical, and
// a shard consolidation landing mid-history can never excuse a mismatch.
// A server is free to *claim* any version in the admissible range, but the
// claim must replay — a snapshot leak, torn read or stale view is caught
// whether or not the reported version is honest (the ServeCheckerMutation
// suite pins this down with fabricated corrupted histories).
//
// Two harnesses share the checker:
//   * a deterministic single-client harness with an injectable clock whose
//     histories include explicit clock advances — PR 3's shrinking harness
//     extended to serving histories: on failure the op sequence is shrunk
//     greedily and the minimal history printed;
//   * a concurrent harness — multiple closed-loop clients racing queries
//     against inserts/removes across >= 4 shards on the real clock, checked
//     for *every* schedule the OS happens to produce (seeds reported).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "dataset/synthetic.h"
#include "eval/workloads.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "util/random.h"

namespace lccs {
namespace serve {
namespace {

constexpr size_t kDim = 8;

core::DynamicIndex::Factory LinearScanFactory() {
  return [] { return std::make_unique<baselines::LinearScan>(); };
}

core::DynamicIndex::Factory ExhaustiveLccsFactory() {
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 4096;  // verifies every candidate -> exact k-NN
  params.w = 4.0;
  return [params] { return std::make_unique<baselines::LccsLshIndex>(params); };
}

std::vector<float> VectorFromPayload(uint64_t payload) {
  util::Rng rng(payload * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<float> vec(kDim);
  rng.FillGaussian(vec.data(), vec.size());
  return vec;
}

dataset::Dataset InitialData(size_t n, uint64_t seed) {
  dataset::SyntheticConfig config;
  config.n = n;
  config.num_queries = 1;
  config.dim = kDim;
  config.num_clusters = 3;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

// ---------------------------------------------------------------------------
// Recorded history + the black-box checker
// ---------------------------------------------------------------------------

struct QueryRecord {
  std::vector<float> vec;
  size_t k = 0;
  QueryResponse response;
  /// Largest mutation version this client had seen acknowledged before
  /// submitting — the snapshot must include at least these (session
  /// monotonicity; an acked mutation is applied, and the query was admitted
  /// after it).
  uint64_t session_floor = 0;
  /// First mutation version this client saw acknowledged *after* receiving
  /// this query's response; 0 = none. The snapshot was cut before the
  /// response was delivered, and that mutation was admitted after — so the
  /// query's version must be strictly below it. Catches a server reading a
  /// torn or future state and reporting a version for it honestly.
  uint64_t session_ceiling = 0;
};

struct MutationRecord {
  bool is_insert = false;
  std::vector<float> vec;  ///< insert payload
  int32_t target = -1;     ///< remove target
  MutationResponse response;
};

struct History {
  /// (global id, vector) pairs the index was Built over — ids 0..n0-1.
  std::vector<std::vector<float>> initial;
  std::vector<MutationRecord> mutations;
  std::vector<QueryRecord> queries;
};

/// Sequential-oracle verification of a recorded history. Returns a failure
/// description, or nullopt when the whole history is consistent.
std::optional<std::string> CheckHistory(History history) {
  // 1. The mutation log must be a dense total order 1..M.
  std::sort(history.mutations.begin(), history.mutations.end(),
            [](const MutationRecord& a, const MutationRecord& b) {
              return a.response.state_version < b.response.state_version;
            });
  for (size_t i = 0; i < history.mutations.size(); ++i) {
    if (history.mutations[i].response.state_version != i + 1) {
      return "mutation versions are not dense: position " + std::to_string(i) +
             " has version " +
             std::to_string(history.mutations[i].response.state_version);
    }
  }
  // Inserts are applied in version order against a monotone id counter, so
  // the i-th insert must have received id n0 + i.
  int32_t expected_insert_id = static_cast<int32_t>(history.initial.size());
  for (const MutationRecord& m : history.mutations) {
    if (!m.is_insert) continue;
    if (!m.response.applied || m.response.id != expected_insert_id) {
      return "insert at version " + std::to_string(m.response.state_version) +
             " got id " + std::to_string(m.response.id) + ", expected " +
             std::to_string(expected_insert_id);
    }
    ++expected_insert_id;
  }

  // 2. Batch metadata: queries sharing a batch observed one snapshot, the
  // recorded occupancy matches the number of queries recorded for it, and
  // batch ids are dense (every window contained at least one query).
  struct BatchInfo {
    uint64_t version = 0;
    size_t size = 0;
    size_t seen = 0;
  };
  std::map<uint64_t, BatchInfo> batches;
  for (const QueryRecord& q : history.queries) {
    if (q.response.batch_id == 0) return "query with batch_id 0";
    auto [it, inserted] = batches.try_emplace(
        q.response.batch_id,
        BatchInfo{q.response.state_version, q.response.batch_size, 0});
    if (!inserted && (it->second.version != q.response.state_version ||
                      it->second.size != q.response.batch_size)) {
      return "batch " + std::to_string(q.response.batch_id) +
             " reported inconsistent snapshot/occupancy across its queries";
    }
    ++it->second.seen;
  }
  uint64_t expected_batch_id = 1;
  uint64_t prev_batch_version = 0;
  for (const auto& [batch_id, info] : batches) {
    if (batch_id != expected_batch_id++) {
      return "batch ids are not dense at " + std::to_string(batch_id);
    }
    if (info.seen != info.size) {
      return "batch " + std::to_string(batch_id) + " reported occupancy " +
             std::to_string(info.size) + " but " + std::to_string(info.seen) +
             " queries recorded it";
    }
    // Windows execute in order on one thread against a monotone log, so
    // snapshot versions must be monotone in batch_id.
    if (info.version < prev_batch_version) {
      return "batch " + std::to_string(batch_id) + " observed version " +
             std::to_string(info.version) +
             ", older than an earlier batch's " +
             std::to_string(prev_batch_version) +
             " (batch versions must be monotone)";
    }
    prev_batch_version = info.version;
  }

  // 3. Replay: sweep the mutation log once, validating each mutation's
  // `applied` flag against the model, and at every distinct snapshot
  // version check the queries taken there against a from-scratch oracle
  // over the survivors.
  std::sort(history.queries.begin(), history.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.response.state_version < b.response.state_version;
            });
  std::map<int32_t, std::vector<float>> model;  // ascending global id
  for (size_t i = 0; i < history.initial.size(); ++i) {
    model.emplace(static_cast<int32_t>(i), history.initial[i]);
  }
  size_t applied = 0;
  const auto apply_mutation =
      [&](const MutationRecord& m) -> std::optional<std::string> {
    if (m.is_insert) {
      model.emplace(m.response.id, m.vec);
    } else {
      const bool was_live = model.erase(m.target) > 0;
      if (m.response.applied != was_live) {
        return "remove of id " + std::to_string(m.target) + " at version " +
               std::to_string(m.response.state_version) + " reported applied=" +
               std::to_string(m.response.applied) + ", oracle says " +
               std::to_string(was_live);
      }
    }
    return std::nullopt;
  };

  dataset::Dataset oracle_data;
  oracle_data.metric = util::Metric::kEuclidean;
  std::vector<int32_t> oracle_ids;
  baselines::LinearScan oracle;
  bool oracle_ready = false;

  for (const QueryRecord& q : history.queries) {
    const uint64_t version = q.response.state_version;
    if (version < q.session_floor) {
      return "batch " + std::to_string(q.response.batch_id) +
             ": snapshot version " + std::to_string(version) +
             " misses a mutation acked before the query was submitted (" +
             std::to_string(q.session_floor) + ")";
    }
    if (q.session_ceiling > 0 && version >= q.session_ceiling) {
      return "batch " + std::to_string(q.response.batch_id) +
             ": snapshot version " + std::to_string(version) +
             " includes mutation " + std::to_string(q.session_ceiling) +
             ", which the client acked only after this query's response";
    }
    if (version > history.mutations.size()) {
      return "query snapshot version " + std::to_string(version) +
             " exceeds the mutation log (" +
             std::to_string(history.mutations.size()) + ")";
    }
    while (applied < version) {
      if (auto failure = apply_mutation(history.mutations[applied])) {
        return failure;
      }
      ++applied;
      oracle_ready = false;
    }
    if (!oracle_ready) {
      oracle_ids.clear();
      oracle_data.data.Resize(model.size(), kDim);
      size_t row = 0;
      for (const auto& [id, vec] : model) {
        std::copy(vec.begin(), vec.end(), oracle_data.data.Row(row));
        oracle_ids.push_back(id);
        ++row;
      }
      if (!model.empty()) oracle.Build(oracle_data);
      oracle_ready = true;
    }
    std::vector<util::Neighbor> want;
    if (!model.empty() && q.k > 0) {
      want = oracle.Query(q.vec.data(), q.k);
      // Oracle rows are the survivors in ascending global-id order; the
      // monotone row -> id remap cannot reorder ties.
      for (util::Neighbor& nb : want) {
        nb.id = oracle_ids[static_cast<size_t>(nb.id)];
      }
    }
    if (q.response.neighbors.size() != want.size()) {
      return "batch " + std::to_string(q.response.batch_id) + " (snapshot " +
             std::to_string(version) + "): query returned " +
             std::to_string(q.response.neighbors.size()) +
             " neighbors, oracle " + std::to_string(want.size());
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (q.response.neighbors[i].id != want[i].id ||
          q.response.neighbors[i].dist != want[i].dist) {
        std::ostringstream msg;
        msg << "batch " << q.response.batch_id << " (snapshot " << version
            << "): rank " << i << " differs: got ("
            << q.response.neighbors[i].id << ", "
            << q.response.neighbors[i].dist << "), oracle (" << want[i].id
            << ", " << want[i].dist << ")";
        return msg.str();
      }
    }
  }
  // Validate the applied flags of mutations no query observed.
  while (applied < history.mutations.size()) {
    if (auto failure = apply_mutation(history.mutations[applied])) {
      return failure;
    }
    ++applied;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Deterministic harness: single client, injectable clock, shrinking
// ---------------------------------------------------------------------------

struct Op {
  enum Kind : uint8_t { kQuery, kInsert, kRemove, kAdvance };
  Kind kind = Op::kQuery;
  // Payloads are fixed at generation and survive shrinking untouched, so
  // removing ops never changes the remaining ones.
  uint64_t payload = 0;
};

const char* KindName(Op::Kind kind) {
  switch (kind) {
    case Op::kQuery: return "Q";
    case Op::kInsert: return "I";
    case Op::kRemove: return "D";
    case Op::kAdvance: return "T";
  }
  return "?";
}

std::string Describe(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << KindName(op.kind) << "(" << op.payload << ") ";
  }
  return out.str();
}

struct SequenceParams {
  uint64_t seed = 0;
  size_t initial_points = 0;
  size_t num_ops = 32;
  size_t num_shards = 4;
  size_t max_batch = 4;
  uint64_t max_delay_us = 500;
  size_t rebuild_threshold = 8;
};

/// Replays `ops` against a fresh server on a fake clock; the history is
/// checked after shutdown. Batch membership is a pure function of the op
/// sequence (arrival stamps come from the fake clock and windows never
/// admit a query stamped at/after their deadline), so membership failures
/// reproduce under shrinking; the snapshot cut itself races the writer
/// thread, which is exactly what the checker's floor/replay bounds admit.
std::optional<std::string> Replay(const core::DynamicIndex::Factory& factory,
                                  const SequenceParams& params,
                                  const std::vector<Op>& ops) {
  std::atomic<uint64_t> clock{0};

  ShardedIndex::Options index_options;
  index_options.num_shards = params.num_shards;
  index_options.dim = kDim;
  index_options.rebuild_threshold = params.rebuild_threshold;
  ShardedIndex index(factory, index_options);

  History history;
  if (params.initial_points > 0) {
    const auto data = InitialData(params.initial_points, params.seed);
    index.Build(data);
    for (size_t i = 0; i < data.n(); ++i) {
      history.initial.emplace_back(data.data.Row(i),
                                   data.data.Row(i) + kDim);
    }
  }

  Server::Options server_options;
  server_options.max_batch = params.max_batch;
  server_options.max_delay_us = params.max_delay_us;
  server_options.now_us = [&clock] {
    return clock.load(std::memory_order_relaxed);
  };
  Server server(&index, server_options);

  // The client's view of the live id set, maintained synchronously from
  // responses — single client, so it matches the server exactly.
  std::vector<int32_t> live;
  for (size_t i = 0; i < history.initial.size(); ++i) {
    live.push_back(static_cast<int32_t>(i));
  }
  struct PendingQuery {
    std::vector<float> vec;
    size_t k = 0;
    uint64_t session_floor = 0;  ///< mutations acked when submitted
    std::future<QueryResponse> future;
  };
  std::vector<PendingQuery> pending;

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kQuery: {
        PendingQuery query;
        query.vec = VectorFromPayload(op.payload);
        query.k = op.payload % 6;  // includes k = 0
        // Every mutation so far was acked synchronously, so the snapshot
        // must include at least this prefix. (It may include more: the
        // writer keeps applying later mutations while the window is open.)
        query.session_floor = history.mutations.size();
        query.future = server.SubmitQuery(query.vec.data(), query.k);
        pending.push_back(std::move(query));
        break;
      }
      case Op::kInsert: {
        MutationRecord record;
        record.is_insert = true;
        record.vec = VectorFromPayload(op.payload);
        record.response = server.SubmitInsert(record.vec.data()).get();
        live.push_back(record.response.id);
        history.mutations.push_back(std::move(record));
        break;
      }
      case Op::kRemove: {
        MutationRecord record;
        const bool expect_applied = !live.empty();
        if (expect_applied) {
          const size_t victim = op.payload % live.size();
          record.target = live[victim];
          live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
        } else {
          record.target = 1 << 20;  // never assigned
        }
        record.response = server.SubmitRemove(record.target).get();
        if (record.response.applied != expect_applied) {
          return "remove of " + std::to_string(record.target) +
                 " returned applied=" +
                 std::to_string(record.response.applied);
        }
        history.mutations.push_back(std::move(record));
        break;
      }
      case Op::kAdvance: {
        clock.fetch_add(1 + op.payload % (2 * params.max_delay_us + 1),
                        std::memory_order_relaxed);
        server.Poke();
        break;
      }
    }
  }

  // Shutdown must drain: every pending future resolves.
  server.Stop();
  const Server::Stats stats = server.stats();
  for (PendingQuery& query : pending) {
    QueryRecord record;
    record.vec = std::move(query.vec);
    record.k = query.k;
    record.session_floor = query.session_floor;
    record.response = query.future.get();
    history.queries.push_back(std::move(record));
  }
  if (stats.queries_served != history.queries.size()) {
    return "server served " + std::to_string(stats.queries_served) +
           " queries, clients recorded " +
           std::to_string(history.queries.size());
  }
  if (stats.mutations_applied != history.mutations.size()) {
    return "server applied " + std::to_string(stats.mutations_applied) +
           " mutations, clients recorded " +
           std::to_string(history.mutations.size());
  }
  return CheckHistory(std::move(history));
}

std::vector<Op> GenerateOps(util::Rng& rng, size_t num_ops) {
  std::vector<Op> ops(num_ops);
  for (Op& op : ops) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 45) {
      op.kind = Op::kQuery;
    } else if (roll < 65) {
      op.kind = Op::kInsert;
    } else if (roll < 80) {
      op.kind = Op::kRemove;
    } else {
      op.kind = Op::kAdvance;
    }
    op.payload = rng.NextU64() >> 1;
  }
  return ops;
}

std::vector<Op> Shrink(const core::DynamicIndex::Factory& factory,
                       const SequenceParams& params, std::vector<Op> ops) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (Replay(factory, params, candidate).has_value()) {
        ops = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return ops;
}

void RunDeterministicSequences(const core::DynamicIndex::Factory& factory,
                               size_t num_sequences, uint64_t seed_base) {
  for (size_t seq = 0; seq < num_sequences; ++seq) {
    SequenceParams params;
    params.seed = seed_base + seq;
    util::Rng rng(params.seed * 0xD1B54A32D192ED03ULL + 17);
    params.initial_points = (seq % 3 == 0) ? 0 : 10 + rng.NextBounded(30);
    params.num_shards = 1 + rng.NextBounded(8);
    params.max_batch = 1 + rng.NextBounded(8);
    params.max_delay_us = 50 + rng.NextBounded(500);
    params.rebuild_threshold =
        (seq % 4 == 2) ? (size_t{1} << 30) : 4 + rng.NextBounded(12);
    params.num_ops = 20 + rng.NextBounded(20);
    std::vector<Op> ops = GenerateOps(rng, params.num_ops);

    auto failure = Replay(factory, params, ops);
    if (failure.has_value()) {
      const std::vector<Op> minimal = Shrink(factory, params, ops);
      const auto minimal_failure = Replay(factory, params, minimal);
      FAIL() << "seq " << seq << " (seed " << params.seed << ", n0 "
             << params.initial_points << ", shards " << params.num_shards
             << ", max_batch " << params.max_batch << ", delay "
             << params.max_delay_us << "us, threshold "
             << params.rebuild_threshold
             << "): " << minimal_failure.value_or(failure.value())
             << "\nminimal sequence (" << minimal.size()
             << " ops): " << Describe(minimal);
    }
  }
}

size_t DeterministicSequences() {
  return eval::EnvSize("LCCS_SERVE_SEQUENCES", 40);
}

TEST(ServeDeterministic, LinearScanShards) {
  RunDeterministicSequences(LinearScanFactory(), DeterministicSequences(),
                            5000);
}

TEST(ServeDeterministic, ExhaustiveLccsShards) {
  RunDeterministicSequences(ExhaustiveLccsFactory(), DeterministicSequences(),
                            6000);
}

// ---------------------------------------------------------------------------
// Concurrent black-box checker: multi-client histories on the real clock
// ---------------------------------------------------------------------------

struct ConcurrentParams {
  uint64_t seed = 0;
  size_t num_shards = 4;
};

std::optional<std::string> RunConcurrentHistory(
    const core::DynamicIndex::Factory& factory,
    const ConcurrentParams& params) {
  util::Rng rng(params.seed * 0xA0761D6478BD642FULL + 29);
  const size_t n0 = 12 + rng.NextBounded(28);
  const size_t num_clients = 2 + rng.NextBounded(3);
  const size_t ops_per_client = 6 + rng.NextBounded(10);

  ShardedIndex::Options index_options;
  index_options.num_shards = params.num_shards;
  index_options.rebuild_threshold = 4 + rng.NextBounded(12);
  ShardedIndex index(factory, index_options);
  const auto data = InitialData(n0, params.seed);
  index.Build(data);

  History history;
  for (size_t i = 0; i < n0; ++i) {
    history.initial.emplace_back(data.data.Row(i), data.data.Row(i) + kDim);
  }

  Server::Options server_options;
  server_options.max_batch = 1 + rng.NextBounded(6);
  server_options.max_delay_us = 100 + rng.NextBounded(300);
  Server server(&index, server_options);

  std::vector<std::vector<MutationRecord>> mutations(num_clients);
  std::vector<std::vector<QueryRecord>> queries(num_clients);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng client_rng(params.seed * 0x9E3779B97F4A7C15ULL + c + 101);
      // Clients own disjoint id pools (initial ids striped by client, plus
      // their own inserts), so a remove of an owned id races no other
      // remove of it — its success is decided purely by the sequencer.
      std::vector<int32_t> owned;
      for (size_t id = c; id < n0; id += num_clients) {
        owned.push_back(static_cast<int32_t>(id));
      }
      // Largest mutation version this client has seen acked: later queries
      // must observe at least this snapshot (session monotonicity).
      uint64_t session_floor = 0;
      // Completed queries whose session_ceiling is still unset; the next
      // mutation this client sees acked bounds all of them from above (the
      // client is closed-loop, so those responses strictly preceded it).
      size_t ceiling_unset_from = 0;
      const auto ack_mutation = [&](uint64_t version) {
        session_floor = std::max(session_floor, version);
        for (; ceiling_unset_from < queries[c].size(); ++ceiling_unset_from) {
          queries[c][ceiling_unset_from].session_ceiling = version;
        }
      };
      for (size_t op = 0; op < ops_per_client; ++op) {
        const uint64_t roll = client_rng.NextBounded(100);
        if (roll < 50) {
          QueryRecord record;
          record.vec = VectorFromPayload(client_rng.NextU64() >> 1);
          record.k = 1 + client_rng.NextBounded(5);
          record.session_floor = session_floor;
          record.response =
              server.SubmitQuery(record.vec.data(), record.k).get();
          queries[c].push_back(std::move(record));
        } else if (roll < 80 || owned.empty()) {
          MutationRecord record;
          record.is_insert = true;
          record.vec = VectorFromPayload(client_rng.NextU64() >> 1);
          record.response = server.SubmitInsert(record.vec.data()).get();
          ack_mutation(record.response.state_version);
          owned.push_back(record.response.id);
          mutations[c].push_back(std::move(record));
        } else if (roll < 95) {
          MutationRecord record;
          const size_t victim = client_rng.NextBounded(owned.size());
          record.target = owned[victim];
          owned.erase(owned.begin() + static_cast<ptrdiff_t>(victim));
          record.response = server.SubmitRemove(record.target).get();
          ack_mutation(record.response.state_version);
          mutations[c].push_back(std::move(record));
        } else {
          // Bogus remove: a never-assigned id must sequence as a no-op.
          MutationRecord record;
          record.target = static_cast<int32_t>((1 << 20) + c);
          record.response = server.SubmitRemove(record.target).get();
          ack_mutation(record.response.state_version);
          mutations[c].push_back(std::move(record));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  for (size_t c = 0; c < num_clients; ++c) {
    for (auto& m : mutations[c]) history.mutations.push_back(std::move(m));
    for (auto& q : queries[c]) history.queries.push_back(std::move(q));
  }
  return CheckHistory(std::move(history));
}

void RunConcurrentHistories(const core::DynamicIndex::Factory& factory,
                            size_t num_shards, size_t num_histories,
                            uint64_t seed_base) {
  for (size_t seq = 0; seq < num_histories; ++seq) {
    ConcurrentParams params;
    params.seed = seed_base + seq;
    params.num_shards = num_shards;
    auto failure = RunConcurrentHistory(factory, params);
    if (failure.has_value()) {
      FAIL() << "concurrent history " << seq << " (seed " << params.seed
             << ", shards " << num_shards << "): " << failure.value();
    }
  }
}

size_t ConcurrentHistories() {
  // >= 200 histories across the three configurations by default; the CI
  // TSAN job dials this down (instrumented replays are ~20x slower).
  return eval::EnvSize("LCCS_SERVE_HISTORIES", 70);
}

TEST(ServeBlackBoxChecker, LinearScanFourShards) {
  RunConcurrentHistories(LinearScanFactory(), 4, ConcurrentHistories(), 7000);
}

TEST(ServeBlackBoxChecker, LinearScanEightShards) {
  RunConcurrentHistories(LinearScanFactory(), 8, ConcurrentHistories(), 8000);
}

TEST(ServeBlackBoxChecker, ExhaustiveLccsFiveShards) {
  RunConcurrentHistories(ExhaustiveLccsFactory(), 5, ConcurrentHistories(),
                         9000);
}

// ---------------------------------------------------------------------------
// Mutation tests for the checker itself: fabricated corrupted histories
// ---------------------------------------------------------------------------
//
// A checker that accepts everything proves nothing. Each test below takes a
// hand-built history that CheckHistory accepts, injects one specific
// snapshot-isolation violation a buggy server could produce — a leaked or
// stale snapshot, a torn batch, a session violation, a cooked occupancy —
// and asserts the checker rejects it for the right reason.

/// Exact k-NN over the survivors of mutations 1..version — the same oracle
/// CheckHistory replays, used here to fabricate *consistent* responses.
std::vector<util::Neighbor> OracleNeighbors(const History& history,
                                            uint64_t version,
                                            const std::vector<float>& vec,
                                            size_t k) {
  std::map<int32_t, std::vector<float>> model;
  for (size_t i = 0; i < history.initial.size(); ++i) {
    model.emplace(static_cast<int32_t>(i), history.initial[i]);
  }
  for (const MutationRecord& m : history.mutations) {
    if (m.response.state_version > version) break;
    if (m.is_insert) {
      model.emplace(m.response.id, m.vec);
    } else {
      model.erase(m.target);
    }
  }
  dataset::Dataset data;
  data.metric = util::Metric::kEuclidean;
  data.data.Resize(model.size(), kDim);
  std::vector<int32_t> ids;
  size_t row = 0;
  for (const auto& [id, v] : model) {
    std::copy(v.begin(), v.end(), data.data.Row(row));
    ids.push_back(id);
    ++row;
  }
  baselines::LinearScan oracle;
  oracle.Build(data);
  std::vector<util::Neighbor> out = oracle.Query(vec.data(), k);
  for (util::Neighbor& nb : out) nb.id = ids[static_cast<size_t>(nb.id)];
  return out;
}

/// 4 initial points; v1 inserts id 4, v2 removes id 0, v3 inserts id 5.
/// Batch 1 (two queries) observed version 1, batch 2 (one query, aimed at
/// the v3 point so its snapshot version is distance-visible) version 3.
History MakeValidHistory() {
  History history;
  for (uint64_t p = 0; p < 4; ++p) {
    history.initial.push_back(VectorFromPayload(100 + p));
  }
  const auto mutate = [&](bool is_insert, int32_t id, uint64_t payload,
                          uint64_t version) {
    MutationRecord m;
    m.is_insert = is_insert;
    if (is_insert) {
      m.vec = VectorFromPayload(payload);
    } else {
      m.target = id;
    }
    m.response.applied = true;
    m.response.id = id;
    m.response.state_version = version;
    history.mutations.push_back(std::move(m));
  };
  mutate(true, 4, 200, 1);
  mutate(false, 0, 0, 2);
  mutate(true, 5, 201, 3);
  const auto query = [&](uint64_t payload, size_t k, uint64_t batch_id,
                         uint64_t version, size_t batch_size, uint64_t floor,
                         uint64_t ceiling) {
    QueryRecord q;
    q.vec = VectorFromPayload(payload);
    q.k = k;
    q.session_floor = floor;
    q.session_ceiling = ceiling;
    q.response.batch_id = batch_id;
    q.response.state_version = version;
    q.response.batch_size = batch_size;
    q.response.neighbors = OracleNeighbors(history, version, q.vec, k);
    history.queries.push_back(std::move(q));
  };
  query(200, 2, 1, 1, 2, 1, 2);  // aimed at the v1 insert; acked before v2
  query(300, 3, 1, 1, 2, 0, 0);
  query(201, 2, 2, 3, 1, 2, 0);  // aimed at the v3 insert
  return history;
}

void ExpectRejected(History history, const std::string& expected_fragment) {
  const auto failure = CheckHistory(std::move(history));
  ASSERT_TRUE(failure.has_value())
      << "corrupted history was accepted (wanted a failure mentioning \""
      << expected_fragment << "\")";
  EXPECT_NE(failure->find(expected_fragment), std::string::npos)
      << "rejected for the wrong reason: " << *failure;
}

TEST(ServeCheckerMutation, AcceptsTheValidHistory) {
  EXPECT_EQ(CheckHistory(MakeValidHistory()), std::nullopt);
}

TEST(ServeCheckerMutation, CatchesLeakedSnapshot) {
  // Batch 2's neighbors contain the v3 insert (distance 0 to the query) but
  // the server claims the cut was at version 2: a later-admitted mutation
  // leaked into the window. The honest-looking version must not excuse it.
  History history = MakeValidHistory();
  history.queries[2].response.state_version = 2;
  ExpectRejected(std::move(history), "differs");
}

TEST(ServeCheckerMutation, CatchesStaleSnapshotViaSessionFloor) {
  // The client had already seen mutation 2 acked before submitting, yet the
  // response claims a version-1 snapshot: a stale read.
  History history = MakeValidHistory();
  history.queries[2].response.state_version = 1;
  history.queries[2].response.neighbors =
      OracleNeighbors(history, 1, history.queries[2].vec, 2);
  ExpectRejected(std::move(history), "misses a mutation acked before");
}

TEST(ServeCheckerMutation, CatchesFutureReadViaSessionCeiling) {
  // Batch 1's first query was acked before mutation 2 was submitted, so its
  // snapshot cannot contain it — fabricate a consistent version-2 response
  // (a "read from the future" with an honest stamp).
  History history = MakeValidHistory();
  for (size_t i = 0; i < 2; ++i) {
    QueryRecord& q = history.queries[i];
    q.response.state_version = 2;
    q.response.neighbors = OracleNeighbors(history, 2, q.vec, q.k);
  }
  ExpectRejected(std::move(history), "acked only after");
}

TEST(ServeCheckerMutation, CatchesTornBatch) {
  // Two queries of one batch report different snapshot versions: the window
  // did not execute against a single atomic cut.
  History history = MakeValidHistory();
  history.queries[1].response.state_version = 2;
  ExpectRejected(std::move(history), "inconsistent");
}

TEST(ServeCheckerMutation, CatchesNonMonotoneBatchVersions) {
  // Batch 2 replays cleanly at version 0 and violates no session bound —
  // only cross-batch monotonicity can catch the time-travel.
  History history = MakeValidHistory();
  QueryRecord& q = history.queries[2];
  q.session_floor = 0;
  q.response.state_version = 0;
  q.response.neighbors = OracleNeighbors(history, 0, q.vec, q.k);
  ExpectRejected(std::move(history), "monotone");
}

TEST(ServeCheckerMutation, CatchesNonDenseMutationLog) {
  // A skipped log position means a mutation was lost or double-stamped.
  History history = MakeValidHistory();
  history.mutations[2].response.state_version = 4;
  history.queries[2].response.state_version = 4;
  ExpectRejected(std::move(history), "not dense");
}

TEST(ServeCheckerMutation, CatchesMisassignedInsertId) {
  History history = MakeValidHistory();
  history.mutations[0].response.id = 7;
  ExpectRejected(std::move(history), "expected");
}

TEST(ServeCheckerMutation, CatchesLyingRemoveAck) {
  // The remove of a live id claims it was a no-op; the replay disagrees.
  History history = MakeValidHistory();
  history.mutations[1].response.applied = false;
  ExpectRejected(std::move(history), "oracle says");
}

TEST(ServeCheckerMutation, CatchesCookedOccupancy) {
  History history = MakeValidHistory();
  history.queries[2].response.batch_size = 2;
  ExpectRejected(std::move(history), "occupancy");
}

// ---------------------------------------------------------------------------
// Deterministic batching-window behavior (injectable clock)
// ---------------------------------------------------------------------------

struct WindowFixture {
  std::atomic<uint64_t> clock{0};
  ShardedIndex index;
  std::unique_ptr<Server> server;

  explicit WindowFixture(Server::Options options,
                         size_t initial_points = 6)
      : index(LinearScanFactory(), [] {
          ShardedIndex::Options index_options;
          index_options.num_shards = 2;
          index_options.dim = kDim;
          return index_options;
        }()) {
    if (initial_points > 0) index.Build(InitialData(initial_points, 77));
    options.now_us = [this] { return clock.load(std::memory_order_relaxed); };
    server = std::make_unique<Server>(&index, options);
  }

  void Advance(uint64_t us) {
    clock.fetch_add(us, std::memory_order_relaxed);
    server->Poke();
  }
};

TEST(ServeBatchingWindow, ClosesOnMaxBatch) {
  Server::Options options;
  options.max_batch = 3;
  options.max_delay_us = 1'000'000'000;  // never expires
  WindowFixture fixture(options);

  const auto vec = VectorFromPayload(1);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(fixture.server->SubmitQuery(vec.data(), 2));
  }
  // The third admission fills the window; no clock movement needed.
  std::vector<QueryResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.batch_id, responses.front().batch_id);
    EXPECT_EQ(response.batch_size, 3u);
    EXPECT_EQ(response.state_version, 0u);
  }
  const Server::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.windows_closed_full, 1u);
  EXPECT_EQ(stats.windows_closed_deadline, 0u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.queries_served, 3u);
}

TEST(ServeBatchingWindow, ClosesOnMaxDelay) {
  Server::Options options;
  options.max_batch = 8;
  options.max_delay_us = 500;
  WindowFixture fixture(options);

  const auto vec = VectorFromPayload(2);
  auto f1 = fixture.server->SubmitQuery(vec.data(), 2);
  auto f2 = fixture.server->SubmitQuery(vec.data(), 2);

  // One tick short of the deadline the window must still be open: the only
  // closers are our fake clock and Poke, so a fulfilled future here would
  // be a real early close, not a flake.
  fixture.Advance(499);
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  fixture.Advance(1);  // exactly max_delay_us since admission
  const QueryResponse r1 = f1.get();
  const QueryResponse r2 = f2.get();
  EXPECT_EQ(r1.batch_id, r2.batch_id);
  EXPECT_EQ(r1.batch_size, 2u);
  const Server::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.windows_closed_deadline, 1u);
  EXPECT_EQ(stats.windows_closed_full, 0u);
}

TEST(ServeBatchingWindow, LateQueryOpensNextWindow) {
  Server::Options options;
  options.max_batch = 8;
  options.max_delay_us = 500;
  WindowFixture fixture(options);

  const auto vec = VectorFromPayload(3);
  auto f1 = fixture.server->SubmitQuery(vec.data(), 2);
  // Admitted at/after the first window's deadline: must not join it, even
  // though the sequencer has not closed it yet.
  fixture.clock.store(600, std::memory_order_relaxed);
  auto f2 = fixture.server->SubmitQuery(vec.data(), 2);
  fixture.server->Poke();

  const QueryResponse r1 = f1.get();
  EXPECT_EQ(r1.batch_size, 1u);
  // The second window (deadline 600 + 500) closes on its own deadline.
  fixture.Advance(500);
  const QueryResponse r2 = f2.get();
  EXPECT_EQ(r2.batch_size, 1u);
  EXPECT_EQ(r2.batch_id, r1.batch_id + 1);
}

TEST(ServeBatchingWindow, MutationsApplyWhileWindowStaysOpen) {
  Server::Options options;
  options.max_batch = 8;
  options.max_delay_us = 1'000'000'000;
  WindowFixture fixture(options);

  const auto inserted = VectorFromPayload(4);
  auto q_before = fixture.server->SubmitQuery(inserted.data(), 1);
  // The insert resolves while the window already holding q_before is still
  // open (frozen clock, batch not full): mutations flow through the writer
  // thread and neither close nor wait for a window. Under the pre-MVCC
  // engine this .get() would deadlock — the mutation waited for the open
  // window to cut, and the window waited for the frozen clock.
  const MutationResponse insert =
      fixture.server->SubmitInsert(inserted.data()).get();
  EXPECT_TRUE(insert.applied);
  EXPECT_EQ(insert.state_version, 1u);
  EXPECT_EQ(q_before.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);  // the window really is still open

  auto q_after = fixture.server->SubmitQuery(inserted.data(), 1);
  fixture.Advance(2'000'000'000);  // past the deadline: the window executes

  // One window, one snapshot — cut at execution time, after the insert was
  // acked — so *both* queries observe it, including the one admitted before
  // the insert. That is snapshot isolation, not admission-order
  // serialization: the checker's session bounds admit exactly this.
  const QueryResponse before = q_before.get();
  const QueryResponse after = q_after.get();
  EXPECT_EQ(before.batch_id, after.batch_id);
  EXPECT_EQ(before.batch_size, 2u);
  EXPECT_EQ(before.state_version, 1u);
  EXPECT_EQ(after.state_version, 1u);
  ASSERT_EQ(before.neighbors.size(), 1u);
  EXPECT_EQ(before.neighbors[0].id, insert.id);
  EXPECT_EQ(before.neighbors[0].dist, 0.0);
  ASSERT_EQ(after.neighbors.size(), 1u);
  EXPECT_EQ(after.neighbors[0].id, insert.id);

  const Server::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.windows_closed_deadline, 1u);
  EXPECT_EQ(stats.mutations_applied, 1u);
}

TEST(ServeBatchingWindow, MixedTrafficKeepsWindowOccupancy) {
  // PR 4's engine cut the window at every mutation, collapsing occupancy
  // under mixed traffic (mean batch 64 -> ~14 with 64 closed-loop
  // clients). Under MVCC the windows must fill identically with and without
  // interleaved mutations.
  const auto run = [](bool with_mutations) {
    Server::Options options;
    options.max_batch = 4;
    options.max_delay_us = 1'000'000'000;
    WindowFixture fixture(options);
    const auto vec = VectorFromPayload(7);
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < 8; ++i) {
      if (with_mutations) {
        // Acked inline, so the writer queue is drained before the next
        // query is admitted — the interleaving is exact, not approximate.
        fixture.server->SubmitInsert(vec.data()).get();
      }
      futures.push_back(fixture.server->SubmitQuery(vec.data(), 1));
    }
    for (auto& future : futures) future.get();
    const Server::Stats stats = fixture.server->stats();
    EXPECT_EQ(stats.queries_served, 8u);
    EXPECT_EQ(stats.mutations_applied, with_mutations ? 8u : 0u);
    return stats;
  };

  const Server::Stats query_only = run(false);
  const Server::Stats mixed = run(true);
  // Both traffic shapes pack the same windows: two full batches of 4.
  EXPECT_EQ(query_only.batches, 2u);
  EXPECT_EQ(mixed.batches, query_only.batches);
  EXPECT_EQ(mixed.windows_closed_full, query_only.windows_closed_full);
  EXPECT_EQ(mixed.windows_closed_full, 2u);
}

TEST(ServeBatchingWindow, ShutdownDrainsWithAllFuturesFulfilled) {
  Server::Options options;
  options.max_batch = 100;
  options.max_delay_us = 1'000'000'000;
  WindowFixture fixture(options);

  const auto vec = VectorFromPayload(5);
  std::vector<std::future<QueryResponse>> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(fixture.server->SubmitQuery(vec.data(), 3));
  }
  auto insert = fixture.server->SubmitInsert(vec.data());
  for (int i = 0; i < 3; ++i) {
    queries.push_back(fixture.server->SubmitQuery(vec.data(), 3));
  }

  // Clock frozen, the window open and under-full, the insert racing the
  // cut — Stop() must still fulfill everything. The mutation no longer
  // splits the window: all 8 queries drain as one shutdown batch whose
  // snapshot saw either 0 or 1 mutations (the writer races the cut; the
  // black-box harnesses pin the exact admissible set, here we pin the
  // structure).
  fixture.server->Stop();
  EXPECT_EQ(insert.get().state_version, 1u);
  std::vector<QueryResponse> responses;
  for (auto& future : queries) responses.push_back(future.get());
  EXPECT_LE(responses.front().state_version, 1u);
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.batch_id, responses.front().batch_id);
    EXPECT_EQ(response.state_version, responses.front().state_version);
    EXPECT_EQ(response.batch_size, 8u);
  }
  const Server::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.windows_closed_shutdown, 1u);
  EXPECT_EQ(stats.windows_closed_full, 0u);
  EXPECT_EQ(stats.windows_closed_deadline, 0u);
  EXPECT_EQ(stats.queries_served, 8u);
  EXPECT_EQ(stats.mutations_applied, 1u);

  // Admission is closed afterwards: the future is broken, not dangling,
  // and the error names shutdown (not overload) so callers don't retry.
  auto rejected = fixture.server->SubmitQuery(vec.data(), 1);
  try {
    rejected.get();
    FAIL() << "post-Stop submission was admitted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "server stopped");
  }
  EXPECT_GE(fixture.server->stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Admission bound
// ---------------------------------------------------------------------------

/// LinearScan whose batched path parks on a test-controlled gate — lets a
/// test hold the sequencer inside ExecuteBatch and fill the queue behind it
/// deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

class GatedLinearScan : public baselines::LinearScan {
 public:
  explicit GatedLinearScan(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}

  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->open; });
    }
    return baselines::LinearScan::QueryBatch(queries, num_queries, k,
                                             num_threads);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(ServeAdmission, BoundedQueueRejectsWhenFull) {
  auto gate = std::make_shared<Gate>();
  ShardedIndex::Options index_options;
  index_options.num_shards = 1;
  ShardedIndex index(
      [gate] { return std::make_unique<GatedLinearScan>(gate); },
      index_options);
  index.Build(InitialData(4, 13));

  Server::Options options;
  options.max_batch = 1;
  options.max_queue = 2;
  Server server(&index, options);

  // The singleton window executes immediately and parks on the gate — with
  // its snapshot already cut (the cut precedes the shard fan-out).
  const auto vec = VectorFromPayload(6);
  auto blocked = server.SubmitQuery(vec.data(), 2);
  gate->WaitUntilEntered();

  // The writer is not behind the parked window: an insert submitted now
  // applies and acks immediately (and, once acked, no longer occupies the
  // queue the admission bound meters).
  EXPECT_EQ(server.SubmitInsert(vec.data()).get().state_version, 1u);

  // Two queued queries fit the bound; the third is shed, not queued.
  auto q1 = server.SubmitQuery(vec.data(), 1);
  auto q2 = server.SubmitQuery(vec.data(), 1);
  auto shed = server.SubmitQuery(vec.data(), 1);
  try {
    shed.get();
    FAIL() << "over-bound submission was admitted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "server overloaded");  // retryable verdict
  }
  EXPECT_EQ(server.stats().rejected, 1u);

  gate->Open();
  // The parked window's snapshot predates the insert — the concurrent
  // mutation must not have leaked into it.
  const QueryResponse parked = blocked.get();
  EXPECT_EQ(parked.state_version, 0u);
  EXPECT_EQ(parked.neighbors.size(), 2u);
  // The queued windows execute after it and observe the insert.
  EXPECT_EQ(q1.get().state_version, 1u);
  EXPECT_EQ(q2.get().state_version, 1u);
  server.Stop();
}

// A server configured with defaults only is bounded too: with the sequencer
// parked, it queues exactly Options().max_queue requests, sheds the next one
// as a retryable overload and counts it, then serves every queued request.
TEST(ServeAdmission, DefaultOptionsBoundTheQueue) {
  auto gate = std::make_shared<Gate>();
  ShardedIndex::Options index_options;
  index_options.num_shards = 1;
  ShardedIndex index(
      [gate] { return std::make_unique<GatedLinearScan>(gate); },
      index_options);
  index.Build(InitialData(4, 13));

  const Server::Options options;
  ASSERT_EQ(options.max_queue, 65536u);
  Server server(&index, options);

  const auto vec = VectorFromPayload(6);
  auto blocked = server.SubmitQuery(vec.data(), 1);
  gate->WaitUntilEntered();

  std::vector<std::future<QueryResponse>> queued;
  queued.reserve(options.max_queue);
  for (size_t i = 0; i < options.max_queue; ++i) {
    queued.push_back(server.SubmitQuery(vec.data(), 1));
  }
  EXPECT_EQ(server.stats().rejected, 0u);
  auto shed = server.SubmitQuery(vec.data(), 1);
  try {
    shed.get();
    FAIL() << "submission past the default bound was admitted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "server overloaded");
  }
  EXPECT_EQ(server.stats().rejected, 1u);

  gate->Open();
  EXPECT_EQ(blocked.get().neighbors.size(), 1u);
  for (auto& response : queued) {
    EXPECT_EQ(response.get().neighbors.size(), 1u);
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// TSAN-targeted stress: many clients, approximate shards, live rebuilds
// ---------------------------------------------------------------------------

TEST(ServeStress, MultiClientTrafficWithConcurrentRebuilds) {
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 40;  // approximate mode — production configuration
  params.w = 6.0;
  ShardedIndex::Options index_options;
  index_options.num_shards = 4;
  // Low enough that the between-windows scheduler fires even when CI dials
  // LCCS_SERVE_STRESS_OPS down for sanitizer runs.
  index_options.rebuild_threshold = 12;
  index_options.max_concurrent_rebuilds = 2;
  ShardedIndex index(
      [params] { return std::make_unique<baselines::LccsLshIndex>(params); },
      index_options);

  dataset::SyntheticConfig synth;
  synth.n = 800;
  synth.num_queries = 4;
  synth.dim = kDim;
  synth.num_clusters = 5;
  synth.seed = 1234;
  const auto data = dataset::GenerateClustered(synth);
  index.Build(data);

  Server::Options server_options;
  server_options.max_batch = 16;
  server_options.max_delay_us = 200;
  Server server(&index, server_options);

  const size_t num_clients = 4;
  const size_t ops_per_client = eval::EnvSize("LCCS_SERVE_STRESS_OPS", 150);
  std::atomic<size_t> inserts{0};
  std::atomic<size_t> removes{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(999 * (c + 1));
      std::vector<int32_t> owned;
      std::vector<float> vec(kDim);
      for (size_t op = 0; op < ops_per_client && !failed.load(); ++op) {
        const uint64_t roll = rng.NextBounded(100);
        if (roll < 65) {
          rng.FillGaussian(vec.data(), vec.size());
          const size_t k = 1 + rng.NextBounded(10);
          const QueryResponse response =
              server.SubmitQuery(vec.data(), k).get();
          if (response.neighbors.size() > k ||
              !std::is_sorted(response.neighbors.begin(),
                              response.neighbors.end())) {
            failed.store(true);
          }
          for (const util::Neighbor& nb : response.neighbors) {
            if (nb.id < 0) failed.store(true);
          }
        } else if (roll < 90 || owned.empty()) {
          rng.FillGaussian(vec.data(), vec.size());
          owned.push_back(server.SubmitInsert(vec.data()).get().id);
          inserts.fetch_add(1);
        } else {
          const size_t victim = rng.NextBounded(owned.size());
          const MutationResponse response =
              server.SubmitRemove(owned[victim]).get();
          if (!response.applied) failed.store(true);  // owned ids are live
          owned.erase(owned.begin() + static_cast<ptrdiff_t>(victim));
          removes.fetch_add(1);
        }
      }
    });
  }
  // A direct reader races the server on the ShardedIndex itself — queries,
  // stats and live counts are documented as safe against mutations.
  std::thread direct_reader([&] {
    util::Rng rng(31337);
    std::vector<float> vec(kDim);
    for (int i = 0; i < 60; ++i) {
      rng.FillGaussian(vec.data(), vec.size());
      (void)index.Query(vec.data(), 5);
      (void)index.ShardStats();
      (void)index.live_count();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& client : clients) client.join();
  direct_reader.join();
  server.Stop();
  index.WaitForRebuilds();

  EXPECT_FALSE(failed.load()) << "a client observed a malformed response";
  EXPECT_EQ(index.live_count(),
            synth.n + inserts.load() - removes.load());
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.mutations_applied, inserts.load() + removes.load());
  EXPECT_GT(stats.batches, 0u);
  // With the per-shard threshold of 12 and dozens-to-hundreds of inserts,
  // the between-windows scheduler must have consolidated shards while
  // traffic was live.
  EXPECT_GT(stats.rebuilds_triggered, 0u);

  // Post-shutdown, the index remains fully usable and consistent.
  index.ConsolidateAll();
  EXPECT_EQ(index.live_count(),
            synth.n + inserts.load() - removes.load());
}

}  // namespace
}  // namespace serve
}  // namespace lccs
