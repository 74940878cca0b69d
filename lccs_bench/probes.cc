#include "probes.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/dynamic_index.h"
#include "serve/wal.h"
#include "storage/quantized_store.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs_bench {
namespace {

using lccs::serve::ShardedIndex;
using lccs::serve::WriteAheadLog;

constexpr size_t kK = 10;
constexpr size_t kWindow = 64;

/// Keeps results of timed calls observable so none is optimized away.
volatile int64_t g_sink = 0;

/// Spans whose self times are reported directly: span, metric, unit scale.
struct TimedMetric {
  const char* span;
  const char* metric;
  double scale;
  const char* unit;
  bool with_p99;  ///< false for operations timed once per run
};

constexpr TimedMetric kTimed[] = {
    {"serve.acquire_snapshot", "serve.acquire_snapshot_us", 1e6, "us", true},
    {"serve.window_exec", "serve.window_exec_ms", 1e3, "ms", true},
    {"serve.sharded_query_batch_w1", "serve.sharded_query_batch_w1_ms", 1e3,
     "ms", true},
    {"serve.sharded_query_batch_w64", "serve.sharded_query_batch_w64_ms",
     1e3, "ms", true},
    {"serve.apply_insert", "serve.apply_insert_us", 1e6, "us", true},
    {"serve.apply_remove", "serve.apply_remove_us", 1e6, "us", true},
    {"serve.wal_append", "serve.wal_append_us", 1e6, "us", true},
    {"serve.wal_fsync", "serve.wal_fsync_ms", 1e3, "ms", true},
    {"serve.checkpoint", "serve.checkpoint_ms", 1e3, "ms", true},
    {"serve.recover_read", "serve.recover_read_s", 1.0, "s", false},
    {"serve.recover_restore", "serve.recover_restore_s", 1.0, "s", false},
    {"core.consolidate", "core.consolidate_ms", 1e3, "ms", true},
    {"core.snapshot_query", "core.snapshot_query_us", 1e6, "us", true},
    {"lsh.hash", "lsh.hash_us", 1e6, "us", true},
    {"core.csa_cascade", "core.csa_cascade_us", 1e6, "us", true},
    {"core.query", "core.query_us", 1e6, "us", true},
    {"util.verify", "util.verify_us", 1e6, "us", true},
    {"storage.quant_score", "storage.quant_score_us", 1e6, "us", true},
    {"storage.rerank_gather", "storage.rerank_gather_us", 1e6, "us", true},
};

void AddTimed(std::vector<Metric>* out, const std::string& name,
              const std::vector<double>& seconds, double scale,
              const std::string& unit, bool with_p99) {
  const CallStats stats = Summarize(seconds);
  out->push_back({name, stats.p50 * scale, unit, "lower", stats.calls});
  if (with_p99) {
    out->push_back({name + ".p99", stats.p99 * scale, unit, "lower",
                    stats.calls});
  }
}

/// Rows [0, rows) of the base set — exactly shard 0 after
/// ShardedIndex::Build's range partition.
lccs::dataset::Dataset Shard0Slice(const lccs::dataset::Dataset& data,
                                   size_t rows) {
  lccs::dataset::Dataset slice;
  slice.name = data.name + "-shard0";
  slice.metric = data.metric;
  slice.data =
      std::make_shared<lccs::storage::SliceStore>(data.data.store(), 0, rows);
  return slice;
}

/// Replays the recorded windows against the serving index — one snapshot
/// acquire plus one ShardedSnapshot::QueryBatch per window, as the window
/// thread runs them — for up to `seconds`. Each window runs twice, once
/// with spans and once without, in alternating order so that neither side
/// always finds the caches warm. Returns the traced / plain time ratio.
double ReplayWindows(const ProbeInput& in, Tracer* tracer, double seconds,
                     size_t* replayed) {
  const size_t d = in.pool->cols();
  Tracer off(false);
  std::vector<float> block;
  uint64_t plain_ns = 0, traced_ns = 0;
  const uint64_t start = NowNs();
  size_t w = 0;
  for (; w < in.windows.size() &&
         NowNs() - start < static_cast<uint64_t>(seconds * 1e9);
       ++w) {
    const std::vector<uint32_t>& rows = in.windows[w];
    block.resize(rows.size() * d);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(block.data() + i * d, in.pool->Row(rows[i]),
                  d * sizeof(float));
    }
    for (size_t pass = 0; pass < 2; ++pass) {
      const bool traced = pass == w % 2;
      Tracer* t = traced ? tracer : &off;
      const uint64_t window_start = NowNs();
      {
        Tracer::Scope window(t, "serve.window", w + 1);
        lccs::serve::ShardedSnapshot snapshot;
        {
          Tracer::Scope span(t, "serve.acquire_snapshot", w + 1);
          snapshot = in.index->AcquireSnapshot();
        }
        Tracer::Scope span(t, "serve.window_exec", w + 1);
        g_sink += static_cast<int64_t>(
            snapshot.QueryBatch(block.data(), rows.size(), kK).size());
      }
      (traced ? traced_ns : plain_ns) += NowNs() - window_start;
    }
  }
  *replayed = w;
  return plain_ns > 0 ? static_cast<double>(traced_ns) /
                            static_cast<double>(plain_ns)
                      : 1.0;
}

/// ShardedSnapshot::QueryBatch at window 1 and window 64 over pool rows.
void ProbeShardedBatch(const ProbeInput& in, Tracer* tracer) {
  const size_t d = in.pool->cols();
  const size_t rows = in.pool->rows();
  const lccs::serve::ShardedSnapshot snapshot = in.index->AcquireSnapshot();
  for (size_t i = 0; i < in.probe_queries; ++i) {
    Tracer::Scope span(tracer, "serve.sharded_query_batch_w1", i + 1);
    g_sink += static_cast<int64_t>(
        snapshot.QueryBatch(in.pool->Row(i % rows), 1, kK).size());
  }
  std::vector<float> block(kWindow * d);
  for (size_t b = 0; b < 4; ++b) {
    for (size_t i = 0; i < kWindow; ++i) {
      std::memcpy(block.data() + i * d,
                  in.pool->Row((b * kWindow + i) % rows), d * sizeof(float));
    }
    Tracer::Scope span(tracer, "serve.sharded_query_batch_w64", b + 1);
    g_sink += static_cast<int64_t>(
        snapshot.QueryBatch(block.data(), kWindow, kK).size());
  }
}

/// The query path of one shard, call by call: a LccsLshIndex over shard 0's
/// rows with the serving parameters (which is exactly shard 0's epoch
/// index after Build), plus its int8 tier and the exact rerank gather.
void ProbeShard(const ProbeInput& in, const lccs::dataset::Dataset& slice,
                Tracer* tracer, std::vector<Metric>* out) {
  const lccs::util::Metric metric = slice.metric;
  const lccs::storage::VectorStore& store = *slice.data.get();
  const size_t d = store.cols();
  lccs::baselines::LccsLshIndex probe(in.lccs);
  probe.Build(slice);
  // Serving with quantize=true attaches the int8 tier to every shard's
  // store; otherwise the probe scores a private tier that the probe
  // index itself never consults, so its Query stays on the exact path.
  std::shared_ptr<const lccs::storage::QuantizedStore> private_tier;
  size_t tier_offset = 0;
  const lccs::storage::QuantizedStore* tier = nullptr;
  if (in.index_options.quantize) {
    lccs::storage::EnsureQuantized(slice.data.store(), metric);
    tier = lccs::storage::ActiveQuantized(&store, metric, &tier_offset);
  }
  if (tier == nullptr) {
    private_tier = lccs::storage::QuantizedStore::Build(store, metric);
    tier = private_tier.get();
    tier_offset = 0;
  }
  const lccs::core::MpLccsLsh& scheme = probe.scheme();
  const lccs::core::CircularShiftArray& csa = scheme.csa();
  const size_t m = scheme.m();
  const size_t budget = in.lccs.lambda + kK - 1;
  const size_t keep = lccs::storage::RerankKeep(kK);
  const size_t queries = std::min(in.probe_queries, in.pool->rows());

  std::vector<lccs::lsh::HashValue> hash(m);
  std::vector<std::vector<int32_t>> candidates(queries);
  std::vector<float> copied;
  std::vector<float> scores;
  std::vector<float> gathered(keep * d);
  size_t total_candidates = 0;
  size_t total_rerank_rows = 0;
  for (size_t q = 0; q < queries; ++q) {
    const float* query = in.pool->Row(q);
    Tracer::Scope request(tracer, "probe.query", q + 1);
    {
      Tracer::Scope span(tracer, "lsh.hash", q + 1);
      scheme.family().Hash(query, hash.data());
    }
    {
      Tracer::Scope span(tracer, "core.csa_cascade", q + 1);
      auto bounds = csa.SearchShift(hash.data(), 0, 0,
                                    static_cast<int32_t>(csa.n()) - 1);
      g_sink += bounds.pos_lo;
      for (size_t shift = 1; shift < m; ++shift) {
        bounds = csa.SearchShiftFrom(hash.data(), shift, bounds);
        g_sink += bounds.pos_lo;
      }
    }
    std::vector<lccs::core::LccsCandidate> found;
    {
      Tracer::Scope span(tracer, "core.csa_search", q + 1);
      found = csa.Search(hash.data(), budget);
    }

    std::vector<int32_t>& ids = candidates[q];
    for (const auto& c : found) ids.push_back(c.id);
    total_candidates += ids.size();
    {
      // A copy-gather store (budgeted mmap) is verified over copied rows,
      // as the serving rerank does, so the span times the kernel and not
      // page faults.
      lccs::util::TopK topk(kK);
      if (store.PrefersCopyGather()) {
        copied.resize(ids.size() * d);
        store.ReadRowsInto(ids.data(), ids.size(), copied.data());
        Tracer::Scope span(tracer, "util.verify", q + 1);
        lccs::util::VerifyCandidates(metric, copied.data(), d, query, nullptr,
                                     ids.size(), topk);
      } else {
        Tracer::Scope span(tracer, "util.verify", q + 1);
        lccs::util::VerifyCandidates(metric, store.data(), d, query,
                                     ids.data(), ids.size(), topk);
      }
      g_sink += static_cast<int64_t>(topk.size());
    }
    scores.resize(ids.size());
    {
      Tracer::Scope span(tracer, "storage.quant_score", q + 1);
      const auto prepared = tier->Prepare(query);
      tier->ScoreCandidates(prepared, ids.data(), ids.size(), tier_offset,
                            scores.data());
    }
    lccs::storage::RerankSelector selector(keep);
    for (size_t i = 0; i < ids.size(); ++i) selector.Offer(scores[i], ids[i]);
    const std::vector<int32_t> rerank = selector.TakeAscendingIds();
    total_rerank_rows += rerank.size();
    {
      Tracer::Scope span(tracer, "storage.rerank_gather", q + 1);
      store.ReadRowsInto(rerank.data(), rerank.size(), gathered.data());
    }
    Tracer::Scope span(tracer, "core.query", q + 1);
    g_sink += static_cast<int64_t>(
        scheme.Query(query, kK, in.lccs.lambda).size());
  }

  // Cross-query batch engine at window 64, and how much of a window's
  // candidate rows it can share.
  const size_t groups = std::max<size_t>(1, queries / kWindow);
  const size_t group_size = std::min(kWindow, queries);
  std::vector<float> block(group_size * d);
  size_t unique_rows = 0, candidate_rows = 0;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<int32_t> merged;
    for (size_t i = 0; i < group_size; ++i) {
      const size_t q = g * group_size + i;
      std::memcpy(block.data() + i * d, in.pool->Row(q), d * sizeof(float));
      merged.insert(merged.end(), candidates[q].begin(), candidates[q].end());
    }
    candidate_rows += merged.size();
    std::sort(merged.begin(), merged.end());
    unique_rows += static_cast<size_t>(
        std::unique(merged.begin(), merged.end()) - merged.begin());
    Tracer::Scope span(tracer, "core.query_batch64", g + 1);
    g_sink += static_cast<int64_t>(
        scheme.QueryBatch(block.data(), group_size, kK, in.lccs.lambda)
            .size());
  }

  const double per_query = 1.0 / static_cast<double>(queries);
  out->push_back({"core.candidates_per_query",
                  static_cast<double>(total_candidates) * per_query, "count",
                  "lower", queries});
  out->push_back({"core.window_dedup_ratio",
                  candidate_rows > 0 ? static_cast<double>(unique_rows) /
                                           static_cast<double>(candidate_rows)
                                     : 0.0,
                  "fraction", "lower", groups});
  out->push_back({"util.verify_bytes_per_query",
                  static_cast<double>(total_candidates * d * sizeof(float)) *
                      per_query,
                  "bytes", "lower", queries});
  out->push_back({"storage.rerank_rows_per_query",
                  static_cast<double>(total_rerank_rows) * per_query, "count",
                  "lower", queries});
  out->push_back({"storage.codes_mb",
                  static_cast<double>(tier->SizeBytes() *
                                      in.index_options.num_shards) /
                      (1 << 20),
                  "MB", "lower", 0});
}

/// core::DynamicIndex over shard 0's rows: snapshot queries over a delta
/// of threshold size, then the consolidation that delta triggers.
void ProbeDynamic(const ProbeInput& in, const lccs::dataset::Dataset& slice,
                  Tracer* tracer, std::vector<Metric>* out) {
  lccs::core::DynamicIndex::Options options;
  options.metric = slice.metric;
  options.dim = slice.dim();
  options.rebuild_threshold = in.rebuild_threshold;
  options.background_rebuild = false;
  options.quantize = in.index_options.quantize;
  lccs::core::DynamicIndex dynamic(in.factory, options);
  dynamic.Build(slice);
  lccs::util::Rng rng(in.seed ^ 0xD1A5EULL);
  std::vector<float> row(slice.dim());
  size_t delta_rows = 0;
  const size_t queries = std::min<size_t>(in.probe_queries, 64);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < in.rebuild_threshold; ++i) {
      PerturbRow(slice.data.Row(rng.NextBounded(slice.n())), slice.dim(),
                 &rng, row.data());
      dynamic.Insert(row.data());
    }
    {
      const lccs::core::Snapshot snapshot = dynamic.AcquireSnapshot();
      delta_rows = snapshot.delta_size();
      for (size_t q = 0; q < queries; ++q) {
        Tracer::Scope span(tracer, "core.snapshot_query", q + 1);
        g_sink += static_cast<int64_t>(
            snapshot.Query(in.pool->Row(q % in.pool->rows()), kK).size());
      }
    }
    Tracer::Scope span(tracer, "core.consolidate", round + 1);
    dynamic.Consolidate();
  }
  out->push_back({"core.delta_rows", static_cast<double>(delta_rows), "count",
                  "lower", 0});
}

struct Op {
  bool insert = false;
  int32_t id = -1;  ///< remove target, or the id an insert must receive
  const float* vec = nullptr;
};

/// Replays a mutation log the way the server's writer thread does — apply,
/// append, one covering fsync per 64 records, consolidation scheduling and
/// periodic checkpoints — then recovers the log twice: once stage by stage
/// (read the checkpoint, restore it) and once through
/// WriteAheadLog::Recover, whose remainder is the tail replay.
void ProbeWal(const ProbeInput& in, ShardedIndex* index,
              const std::vector<Op>& ops, const std::string& dir,
              Tracer* tracer, ProbeOutput* result) {
  WriteAheadLog::Options wal_options;
  wal_options.fsync_policy = WriteAheadLog::FsyncPolicy::kGroupCommit;
  const size_t checkpoint_every =
      std::min<size_t>(4000, std::max<size_t>(1, ops.size() * 3 / 4));
  WriteAheadLog::Stats stats;
  {
    WriteAheadLog wal(dir, wal_options);
    wal.Recover(index);
    WriteAheadLog::Record record;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      ShardedIndex::MutationResult applied;
      if (op.insert) {
        Tracer::Scope span(tracer, "serve.apply_insert", i + 1);
        applied = index->ApplyInsert(op.vec);
      } else {
        Tracer::Scope span(tracer, "serve.apply_remove", i + 1);
        applied = index->ApplyRemove(op.id);
      }
      if (!applied.applied ||
          (op.insert && op.id >= 0 && applied.id != op.id)) {
        result->problems.push_back("mutation replay diverged at record " +
                                   std::to_string(i + 1));
        break;
      }
      record.version = applied.state_version;
      record.is_insert = op.insert;
      record.id = applied.id;
      if (op.insert) {
        record.vec.assign(op.vec, op.vec + index->dim());
      } else {
        record.vec.clear();
      }
      {
        Tracer::Scope span(tracer, "serve.wal_append", i + 1);
        wal.Append(record);
      }
      if ((i + 1) % 64 == 0 || i + 1 == ops.size()) {
        {
          Tracer::Scope span(tracer, "serve.wal_fsync", i + 1);
          wal.Sync();
        }
        index->MaintainShards();
      }
      if ((i + 1) % checkpoint_every == 0) {
        Tracer::Scope span(tracer, "serve.checkpoint", i + 1);
        wal.WriteCheckpoint(index->CaptureCheckpointState());
      }
    }
    index->WaitForRebuilds();
    stats = wal.stats();
  }
  const double per_mutation = 1.0 / static_cast<double>(ops.size());
  result->metrics.push_back({"serve.fsyncs_per_mutation",
                             static_cast<double>(stats.fsyncs) * per_mutation,
                             "count", "lower", ops.size()});
  result->metrics.push_back(
      {"serve.wal_bytes_per_mutation",
       static_cast<double>(stats.bytes_appended) * per_mutation, "bytes",
       "lower", ops.size()});

  const auto checkpoints = WriteAheadLog::ListCheckpoints(dir);
  if (checkpoints.empty()) {
    result->problems.push_back("mutation replay wrote no checkpoint");
    return;
  }
  {
    ShardedIndex::CheckpointState state;
    {
      Tracer::Scope span(tracer, "serve.recover_read");
      state = WriteAheadLog::ReadCheckpoint(checkpoints.back().path);
    }
    ShardedIndex restored(in.factory, in.index_options);
    Tracer::Scope span(tracer, "serve.recover_restore");
    restored.RestoreCheckpointState(state);
  }
  ShardedIndex recovered(in.factory, in.index_options);
  {
    WriteAheadLog wal(dir, wal_options);
    Tracer::Scope span(tracer, "serve.recover");
    wal.Recover(&recovered);
  }
  if (!SameLiveState(recovered, *index)) {
    result->problems.push_back(
        "recovered replay state differs from the replayed index");
  }
}

}  // namespace

void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0) {
      continue;
    }
    const std::string path = dir + "/" + e->d_name;
    struct stat st {};
    if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(path);
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

bool SameLiveState(const ShardedIndex& a, const ShardedIndex& b) {
  std::vector<int32_t> ids_a, ids_b;
  const lccs::util::Matrix va = a.LiveVectors(&ids_a);
  const lccs::util::Matrix vb = b.LiveVectors(&ids_b);
  return ids_a == ids_b && va.rows() == vb.rows() && va.cols() == vb.cols() &&
         std::memcmp(va.data(), vb.data(), va.SizeBytes()) == 0;
}

ProbeOutput RunProbes(const ProbeInput& in, Tracer* tracer) {
  ProbeOutput result;
  const lccs::dataset::Dataset& data = *in.data;
  const size_t shard_rows = data.n() / in.index_options.num_shards;
  const lccs::dataset::Dataset slice = Shard0Slice(data, shard_rows);

  size_t windows = 0;
  const double overhead =
      ReplayWindows(in, tracer, in.replay_seconds, &windows);
  result.metrics.push_back(
      {"trace_overhead", overhead, "ratio", "lower", windows});
  ProbeShardedBatch(in, tracer);

  ProbeShard(in, slice, tracer, &result.metrics);
  ProbeDynamic(in, slice, tracer, &result.metrics);

  // Mutation replay: churn's recorded log into a fresh full index (the
  // log names global ids of the whole index), otherwise a seeded log of
  // inserts and removes over a fresh index of shard 0's rows.
  lccs::util::Rng rng(in.seed ^ 0x3A11ULL);
  std::vector<Op> ops;
  std::vector<float> payloads;
  const lccs::dataset::Dataset* base = &data;
  if (in.mutation_log != nullptr) {
    const LoadResult& log = *in.mutation_log;
    std::vector<const MutationRecord*> acked;
    for (const MutationRecord& m : log.mutations) {
      if (m.ok) acked.push_back(&m);
    }
    std::sort(acked.begin(), acked.end(),
              [](const MutationRecord* a, const MutationRecord* b) {
                return a->version < b->version;
              });
    for (const MutationRecord* m : acked) {
      Op op;
      op.insert = m->is_insert;
      op.id = m->id;
      if (m->is_insert) {
        op.vec = log.insert_payloads.data() +
                 static_cast<size_t>(m->payload) * data.dim();
      }
      ops.push_back(op);
    }
  } else {
    base = &slice;
    const size_t count = std::max<size_t>(64, 2 * in.rebuild_threshold);
    std::vector<int32_t> removable(shard_rows);
    for (size_t i = 0; i < shard_rows; ++i) {
      removable[i] = static_cast<int32_t>(i);
    }
    rng.Shuffle(&removable);
    payloads.resize(count * data.dim());
    for (size_t i = 0; i < count; ++i) {
      Op op;
      if (rng.UniformDouble() < 0.6 || removable.empty()) {
        op.insert = true;
        op.vec = payloads.data() + i * data.dim();
        PerturbRow(slice.data.Row(rng.NextBounded(shard_rows)), data.dim(),
                   &rng, payloads.data() + i * data.dim());
      } else {
        op.id = removable.back();
        removable.pop_back();
      }
      ops.push_back(op);
    }
  }
  if (ops.empty()) {
    result.problems.push_back("no mutations to replay");
  } else {
    const std::string dir = in.work_dir + "/wal_replay";
    RemoveTree(dir);
    ::mkdir(dir.c_str(), 0755);
    ShardedIndex replay(in.factory, in.index_options);
    replay.Build(*base);
    ProbeWal(in, &replay, ops, dir, tracer, &result);
    RemoveTree(dir);
  }

  result.metrics.push_back(
      {"storage.resident_mb",
       static_cast<double>(data.data.get()->ResidentBytes()) / (1 << 20), "MB",
       "lower", 0});

  const auto self_times = tracer->SelfTimes();
  for (const auto& [name, seconds] : self_times) {
    result.calls[name] = Summarize(seconds);
  }
  const auto find = [&](const char* span) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    const auto it = self_times.find(span);
    return it == self_times.end() ? kEmpty : it->second;
  };
  for (const TimedMetric& t : kTimed) {
    AddTimed(&result.metrics, t.metric, find(t.span), t.scale, t.unit,
             t.with_p99);
  }
  // Search runs the same bound cascade and then drains the frontier heap;
  // both are timed per probe query, in the same order.
  const std::vector<double>& search = find("core.csa_search");
  const std::vector<double>& cascade = find("core.csa_cascade");
  std::vector<double> drain(std::min(search.size(), cascade.size()));
  for (size_t i = 0; i < drain.size(); ++i) drain[i] = search[i] - cascade[i];
  AddTimed(&result.metrics, "core.csa_drain_us", drain, 1e6, "us", true);
  // Recover reads and restores the checkpoint, then replays the tail.
  const auto once = [&](const char* span) {
    return find(span).empty() ? 0.0 : find(span).front();
  };
  result.metrics.push_back({"serve.recover_replay_s",
                            once("serve.recover") -
                                once("serve.recover_read") -
                                once("serve.recover_restore"),
                            "s", "lower", 0});
  std::vector<double> batch_per_query = find("core.query_batch64");
  const double group = static_cast<double>(
      std::min(kWindow, std::min(in.probe_queries, in.pool->rows())));
  for (double& s : batch_per_query) s /= group;
  AddTimed(&result.metrics, "core.query_batch_us_per_query", batch_per_query,
           1e6, "us", true);
  return result;
}

}  // namespace lccs_bench
