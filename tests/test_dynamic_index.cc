// Randomized oracle-equivalence property harness for core::DynamicIndex.
//
// Every sequence applies interleaved insert / delete / query / consolidate
// operations to a DynamicIndex and, at each query, demands the result be
// *identical* — same ids, bit-identical distances — to a from-scratch
// oracle index of the same configuration built over the surviving points.
//
// The index configurations run in exhaustive-verification mode (λ larger
// than any point count, so LCCS-LSH and MP-LCCS-LSH verify every candidate
// the CSA can surface and return the exact k-NN, like LinearScan). That
// makes the oracle comparison exact regardless of how points are split
// between the static epoch and the delta buffer — so the property isolates
// precisely the mutation bookkeeping this PR adds (tombstones, delta merge,
// global-id remapping across epoch rebuilds), and a background rebuild
// landing mid-sequence can never excuse a mismatch.
//
// On failure the harness shrinks the sequence (greedy op removal while the
// failure reproduces) and reports the minimal op list.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "core/dynamic_index.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/workloads.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace core {
namespace {

constexpr size_t kDim = 12;

struct Op {
  enum Kind : uint8_t { kInsert, kRemove, kQuery, kConsolidate };
  Kind kind = kInsert;
  // Payloads are assigned once, at sequence generation, and survive
  // shrinking untouched: an insert's vector and a query's vector depend
  // only on the payload, so removing ops never changes the remaining ones.
  uint64_t payload = 0;
};

std::vector<float> VectorFromPayload(uint64_t payload) {
  util::Rng rng(payload * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<float> v(kDim);
  rng.FillGaussian(v.data(), v.size());
  return v;
}

const char* KindName(Op::Kind kind) {
  switch (kind) {
    case Op::kInsert: return "I";
    case Op::kRemove: return "D";
    case Op::kQuery: return "Q";
    case Op::kConsolidate: return "C";
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

/// One index configuration under test plus its oracle twin.
struct IndexConfig {
  std::string name;
  std::function<std::unique_ptr<baselines::AnnIndex>()> make;
};

std::vector<IndexConfig> ConfigsUnderTest() {
  // λ far above any point count in these sequences (≤ ~100) → every point
  // is verified and the result is the exact k-NN. Not overly large: the
  // multi-probe candidate loop reserves hash space proportional to λ.
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 16;
  lccs.lambda = 4096;
  lccs.w = 4.0;
  baselines::LccsLshIndex::Params mp = lccs;
  mp.num_probes = 8;
  return {
      {"LinearScan",
       [] { return std::make_unique<baselines::LinearScan>(); }},
      {"LCCS-LSH",
       [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); }},
      {"MP-LCCS-LSH",
       [mp] { return std::make_unique<baselines::LccsLshIndex>(mp); }},
  };
}

struct SequenceParams {
  uint64_t seed = 0;
  size_t initial_points = 0;  ///< 0 = start from an empty, never-Built index
  size_t num_ops = 32;
  size_t rebuild_threshold = 8;
  bool background_rebuild = false;
  /// Gap between consecutive ids. 1 lets the index assign them (Build(data),
  /// Insert(vec)); above 1 the caller assigns them: Build gets ids
  /// 0, s, 2s, ... and each insert takes the previous id + s.
  int32_t id_stride = 1;
};

/// The reference model: surviving (id, vector) pairs in ascending id order.
struct Model {
  std::vector<std::pair<int32_t, std::vector<float>>> live;
  int32_t next_id = 0;

  void Insert(int32_t id, std::vector<float> vec) {
    live.emplace_back(id, std::move(vec));
  }
  void Remove(size_t index) { live.erase(live.begin() + index); }
};

/// The top-k of a from-scratch `config` index over the model's survivors,
/// remapped to global ids.
std::vector<util::Neighbor> SurvivorOracle(const IndexConfig& config,
                                           const Model& model,
                                           const float* query, size_t k) {
  if (model.live.empty()) return {};
  dataset::Dataset oracle_data;
  oracle_data.metric = util::Metric::kEuclidean;
  oracle_data.data.Resize(model.live.size(), kDim);
  for (size_t i = 0; i < model.live.size(); ++i) {
    std::copy(model.live[i].second.begin(), model.live[i].second.end(),
              oracle_data.data.Row(i));
  }
  const auto oracle = config.make();
  oracle->Build(oracle_data);
  std::vector<util::Neighbor> want = oracle->Query(query, k);
  // Oracle rows are the survivors in ascending global-id order, so the
  // row -> id remap is monotone and cannot reorder ties.
  for (util::Neighbor& nb : want) nb.id = model.live[nb.id].first;
  return want;
}

/// Replays `ops` against a fresh DynamicIndex and the model; returns a
/// failure description, or nullopt when every check passed.
std::optional<std::string> Replay(const IndexConfig& config,
                                  const SequenceParams& params,
                                  const std::vector<Op>& ops) {
  DynamicIndex::Options options;
  options.metric = util::Metric::kEuclidean;
  options.dim = kDim;
  options.rebuild_threshold = params.rebuild_threshold;
  options.background_rebuild = params.background_rebuild;
  DynamicIndex index(config.make, options);

  Model model;
  if (params.initial_points > 0) {
    dataset::SyntheticConfig synth;
    synth.n = params.initial_points;
    synth.num_queries = 1;
    synth.dim = kDim;
    synth.num_clusters = 4;
    synth.seed = params.seed;
    const auto data = dataset::GenerateClustered(synth);
    std::vector<int32_t> ids(data.n());
    for (size_t i = 0; i < data.n(); ++i) {
      ids[i] = static_cast<int32_t>(i) * params.id_stride;
      model.Insert(ids[i], std::vector<float>(data.data.Row(i),
                                              data.data.Row(i) + kDim));
    }
    if (params.id_stride == 1) {
      index.Build(data);
    } else {
      index.Build(data, ids);
    }
    model.next_id = static_cast<int32_t>(data.n()) * params.id_stride;
  }

  for (size_t step = 0; step < ops.size(); ++step) {
    const Op& op = ops[step];
    switch (op.kind) {
      case Op::kInsert: {
        const std::vector<float> vec = VectorFromPayload(op.payload);
        if (params.id_stride == 1) {
          const int32_t id = index.Insert(vec.data());
          if (id != model.next_id) {
            return "step " + std::to_string(step) + ": Insert returned id " +
                   std::to_string(id) + ", model expected " +
                   std::to_string(model.next_id);
          }
        } else {
          index.Insert(vec.data(), model.next_id);
        }
        model.Insert(model.next_id, vec);
        model.next_id += params.id_stride;
        break;
      }
      case Op::kRemove: {
        // Ids never assigned — the next id, -1, and with a stride the gap
        // id next to the victim, between two rows the index holds — are
        // found nowhere: a lookup off by one would hit a neighbouring row.
        std::vector<int32_t> unassigned = {model.next_id, -1};
        const size_t victim =
            model.live.empty() ? 0 : op.payload % model.live.size();
        const int32_t id = model.live.empty() ? -1 : model.live[victim].first;
        if (!model.live.empty() && params.id_stride == 3) {
          unassigned.push_back(id + 1);
        }
        for (const int32_t probe : unassigned) {
          if (index.Contains(probe) || index.Remove(probe)) {
            return "step " + std::to_string(step) + ": never-assigned id " +
                   std::to_string(probe) + " was found";
          }
        }
        if (model.live.empty()) break;
        if (!index.Remove(id)) {
          return "step " + std::to_string(step) + ": Remove(" +
                 std::to_string(id) + ") returned false for a live id";
        }
        if (index.Remove(id)) {
          return "step " + std::to_string(step) + ": double Remove(" +
                 std::to_string(id) + ") returned true";
        }
        model.Remove(victim);
        break;
      }
      case Op::kConsolidate: {
        index.Consolidate();
        if (index.delta_size() != 0 || index.tombstone_count() != 0) {
          return "step " + std::to_string(step) +
                 ": Consolidate left delta=" +
                 std::to_string(index.delta_size()) + " tombstones=" +
                 std::to_string(index.tombstone_count());
        }
        break;
      }
      case Op::kQuery: {
        const std::vector<float> query = VectorFromPayload(op.payload);
        const size_t k = 1 + op.payload % 10;
        const auto got = index.Query(query.data(), k);
        const auto want = SurvivorOracle(config, model, query.data(), k);
        if (got.size() != want.size()) {
          return "step " + std::to_string(step) + ": query returned " +
                 std::to_string(got.size()) + " neighbors, oracle " +
                 std::to_string(want.size());
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].id != want[i].id || got[i].dist != want[i].dist) {
            std::ostringstream msg;
            msg << "step " << step << ": rank " << i << " differs: got ("
                << got[i].id << ", " << got[i].dist << "), oracle ("
                << want[i].id << ", " << want[i].dist << ")";
            return msg.str();
          }
        }
        break;
      }
    }
    if (index.live_count() != model.live.size()) {
      return "step " + std::to_string(step) + ": live_count " +
             std::to_string(index.live_count()) + " != model " +
             std::to_string(model.live.size());
    }
  }

  // Terminal cross-check: the index's view of the survivors is the model's.
  index.WaitForRebuild();
  std::vector<int32_t> ids;
  const util::Matrix live = index.LiveVectors(&ids);
  if (ids.size() != model.live.size()) {
    return "LiveVectors returned " + std::to_string(ids.size()) +
           " points, model has " + std::to_string(model.live.size());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != model.live[i].first) {
      return "LiveVectors id mismatch at row " + std::to_string(i);
    }
    for (size_t j = 0; j < kDim; ++j) {
      if (live.At(i, j) != model.live[i].second[j]) {
        return "LiveVectors payload mismatch at row " + std::to_string(i);
      }
    }
  }
  return std::nullopt;
}

std::vector<Op> GenerateOps(util::Rng& rng, size_t num_ops) {
  std::vector<Op> ops(num_ops);
  for (Op& op : ops) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 40) {
      op.kind = Op::kInsert;
    } else if (roll < 60) {
      op.kind = Op::kRemove;
    } else if (roll < 95) {
      op.kind = Op::kQuery;
    } else {
      op.kind = Op::kConsolidate;
    }
    op.payload = rng.NextU64() >> 1;  // keep id arithmetic far from overflow
  }
  return ops;
}

/// Greedy delta-debugging: repeatedly drop ops whose removal preserves the
/// failure. Quadratic in the (small) sequence length — plenty for a
/// shrunken counterexample worth printing.
std::vector<Op> Shrink(const IndexConfig& config,
                       const SequenceParams& params, std::vector<Op> ops) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + i);
      if (Replay(config, params, candidate).has_value()) {
        ops = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return ops;
}

void RunSequences(const IndexConfig& config, size_t num_sequences,
                  uint64_t seed_base) {
  for (size_t seq = 0; seq < num_sequences; ++seq) {
    SequenceParams params;
    params.seed = seed_base + seq;
    util::Rng rng(params.seed * 0xD1B54A32D192ED03ULL + 11);
    // Exercise empty starts, small epochs that rebuild often, an
    // effectively-infinite threshold (pure delta), and the background path.
    params.initial_points = (seq % 3 == 0) ? 0 : 20 + rng.NextBounded(40);
    const size_t threshold_roll = seq % 4;
    params.rebuild_threshold = threshold_roll == 0   ? 4
                               : threshold_roll == 1 ? 12
                               : threshold_roll == 2 ? (size_t{1} << 30)
                                                     : 8;
    params.background_rebuild = seq % 2 == 1;
    params.id_stride = (seq / 4) % 2 == 0 ? 1 : 3;
    params.num_ops = 24 + rng.NextBounded(16);
    std::vector<Op> ops = GenerateOps(rng, params.num_ops);

    auto failure = Replay(config, params, ops);
    if (failure.has_value()) {
      const std::vector<Op> minimal = Shrink(config, params, ops);
      const auto minimal_failure = Replay(config, params, minimal);
      FAIL() << config.name << " seq " << seq << " (seed " << params.seed
             << ", n0 " << params.initial_points << ", threshold "
             << params.rebuild_threshold << ", background "
             << params.background_rebuild << ", id stride "
             << params.id_stride << "): "
             << minimal_failure.value_or(failure.value())
             << "\nminimal sequence (" << minimal.size()
             << " ops): " << Describe(minimal);
    }
  }
}

size_t SequencesPerConfig() {
  // ≥ 200 sequences across the three configurations by default; CI's TSAN
  // job dials this down (instrumented replays are ~20x slower).
  return eval::EnvSize("LCCS_DYNAMIC_SEQUENCES", 70);
}

TEST(DynamicOracleEquivalence, LinearScan) {
  RunSequences(ConfigsUnderTest()[0], SequencesPerConfig(), 1000);
}

TEST(DynamicOracleEquivalence, LccsLsh) {
  RunSequences(ConfigsUnderTest()[1], SequencesPerConfig(), 2000);
}

TEST(DynamicOracleEquivalence, MpLccsLsh) {
  RunSequences(ConfigsUnderTest()[2], SequencesPerConfig(), 3000);
}

// The stats() snapshot feeds the shard consolidation scheduler
// (serve::ShardedIndex::MaintainShards): all counters must come from one
// lock acquisition and agree with the individual accessors at quiescence.
TEST(DynamicIndexStats, SnapshotTracksMutationsAndConsolidation) {
  DynamicIndex::Options options;
  options.dim = kDim;
  options.rebuild_threshold = 1 << 30;  // no automatic consolidation
  options.background_rebuild = false;
  // Gate on the epoch factory: while armed, the consolidation thread blocks
  // inside its factory() call until the test releases it, so "a rebuild is
  // in flight" below is a deterministic window, not a race against how
  // fast a 9-row rebuild finishes.
  std::atomic<bool> gate_armed{false};
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  const DynamicIndex::Factory base = ConfigsUnderTest()[0].make;
  const DynamicIndex::Factory factory = [&gate_armed, released, base] {
    if (gate_armed.load()) released.wait();
    return base();
  };
  DynamicIndex index(factory, options);

  DynamicIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.live, 0u);
  EXPECT_EQ(stats.epoch_rows, 0u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.epoch_sequence, 0u);
  EXPECT_FALSE(stats.rebuild_in_flight);
  EXPECT_FALSE(index.rebuild_in_flight());

  for (uint64_t payload = 0; payload < 10; ++payload) {
    const auto vec = VectorFromPayload(payload);
    index.Insert(vec.data());
  }
  ASSERT_TRUE(index.Remove(2));
  ASSERT_TRUE(index.Remove(7));
  stats = index.stats();
  EXPECT_EQ(stats.live, 8u);
  EXPECT_EQ(stats.epoch_rows, 0u);
  EXPECT_EQ(stats.delta_rows, 10u);  // live + tombstoned delta slots
  EXPECT_EQ(stats.tombstones, 2u);
  EXPECT_EQ(stats.delta_rows, index.delta_size());
  EXPECT_EQ(stats.tombstones, index.tombstone_count());

  index.Consolidate();
  stats = index.stats();
  EXPECT_EQ(stats.live, 8u);
  EXPECT_EQ(stats.epoch_rows, 8u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.epoch_sequence, 1u);
  EXPECT_FALSE(stats.rebuild_in_flight);

  // TriggerRebuild claims the in-flight slot; a second trigger while one
  // runs must be refused (the scheduler counts on that to bound fan-out).
  const auto vec = VectorFromPayload(99);
  index.Insert(vec.data());
  gate_armed.store(true);
  ASSERT_TRUE(index.TriggerRebuild());   // parks in the gated factory
  EXPECT_FALSE(index.TriggerRebuild());  // refused while the first holds it
  EXPECT_TRUE(index.rebuild_in_flight());
  gate_armed.store(false);
  release.set_value();
  index.WaitForRebuild();
  EXPECT_FALSE(index.rebuild_in_flight());
  EXPECT_EQ(index.stats().epoch_sequence, 2u);
}

// The "dataset need not outlive the index" promise survives the zero-copy
// storage refactor even for a borrowed (non-owning) store: Build must
// detect that the store pins nothing and snapshot it.
TEST(DynamicIndexStorage, BuildDeepCopiesBorrowedStores) {
  DynamicIndex::Options options;
  options.rebuild_threshold = 1 << 30;
  options.background_rebuild = false;
  DynamicIndex index(ConfigsUnderTest()[0].make, options);

  std::vector<float> query(kDim, 0.0f);
  {
    auto buffer = std::make_unique<std::vector<float>>(20 * kDim);
    util::Rng rng(61);
    rng.FillGaussian(buffer->data(), buffer->size());
    std::copy(buffer->begin(), buffer->begin() + kDim, query.begin());
    dataset::Dataset borrowed;
    borrowed.metric = util::Metric::kEuclidean;
    borrowed.data =
        storage::VectorStoreRef(storage::WrapBorrowed(buffer->data(), 20, kDim));
    index.Build(borrowed);
    // Poison and free the caller's buffer: the index must not notice.
    std::fill(buffer->begin(), buffer->end(), 1e30f);
  }
  const auto result = index.Query(query.data(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);
  EXPECT_EQ(result[0].dist, 0.0);
}

// Spill consolidation: with Options::spill_dir, consolidation streams
// survivors to a flat file and serves the new epoch memory-mapped. Results
// must match the heap consolidation bit for bit.
TEST(DynamicIndexStorage, SpillConsolidationMatchesHeapConsolidation) {
  dataset::SyntheticConfig config;
  config.n = 300;
  config.num_queries = 15;
  config.dim = 12;
  config.seed = 31;
  const auto data = dataset::GenerateClustered(config);

  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 4096;  // exact mode: equivalence checks are strict
  params.w = 6.0;
  params.seed = 21;
  DynamicIndex::Options heap_options;
  heap_options.rebuild_threshold = size_t{1} << 30;
  heap_options.background_rebuild = false;
  DynamicIndex::Options spill_options = heap_options;
  spill_options.spill_dir = testing::TempDir();

  const auto factory = [params] {
    return std::make_unique<baselines::LccsLshIndex>(params);
  };
  DynamicIndex heap_index(factory, heap_options);
  DynamicIndex spill_index(factory, spill_options);
  heap_index.Build(data);
  spill_index.Build(data);

  util::Rng rng(41);
  std::vector<float> vec(data.dim());
  for (int i = 0; i < 50; ++i) {
    rng.FillGaussian(vec.data(), vec.size());
    heap_index.Insert(vec.data());
    spill_index.Insert(vec.data());
  }
  for (int32_t id = 0; id < 80; id += 3) {
    EXPECT_EQ(heap_index.Remove(id), spill_index.Remove(id));
  }
  heap_index.Consolidate();
  spill_index.Consolidate();
  EXPECT_EQ(heap_index.epoch_size(), spill_index.epoch_size());
  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(heap_index.Query(data.queries.Row(q), 10),
              spill_index.Query(data.queries.Row(q), 10))
        << "query " << q;
  }

  // A second consolidation replaces the spill epoch, unlinking the retired
  // file; the index keeps serving.
  for (int i = 0; i < 10; ++i) {
    rng.FillGaussian(vec.data(), vec.size());
    spill_index.Insert(vec.data());
  }
  spill_index.Consolidate();
  EXPECT_EQ(spill_index.delta_size(), 0u);
}

dataset::Dataset SmallData(size_t n, uint64_t seed) {
  dataset::SyntheticConfig synth;
  synth.n = n;
  synth.num_queries = 1;
  synth.dim = kDim;
  synth.num_clusters = 2;
  synth.seed = seed;
  return dataset::GenerateClustered(synth);
}

// Caller-assigned ids: a bad id list or insert id throws invalid_argument
// and leaves the index exactly as it was.
TEST(DynamicIndexIds, RejectsBadCallerIdsWithoutChangingState) {
  DynamicIndex::Options options;
  options.dim = kDim;
  options.background_rebuild = false;
  DynamicIndex index(ConfigsUnderTest()[0].make, options);
  const auto data = SmallData(3, 5);
  index.Build(data, {10, 20, 30});

  const auto expect_unchanged = [&](const char* what) {
    EXPECT_EQ(index.live_count(), 3u) << what;
    EXPECT_EQ(index.version(), 0u) << what;
    EXPECT_EQ(index.delta_size(), 0u) << what;
    for (const int32_t id : {10, 20, 30}) {
      EXPECT_TRUE(index.Contains(id)) << what << " id " << id;
    }
  };
  EXPECT_THROW(index.Build(data, {10, 30, 20}), std::invalid_argument);
  expect_unchanged("ids not ascending");
  EXPECT_THROW(index.Build(data, {10, 20, 20}), std::invalid_argument);
  expect_unchanged("duplicate ids");
  EXPECT_THROW(index.Build(data, {-1, 20, 30}), std::invalid_argument);
  expect_unchanged("negative id");
  EXPECT_THROW(index.Build(data, {10, 20}), std::invalid_argument);
  expect_unchanged("fewer ids than rows");

  const std::vector<float> vec = VectorFromPayload(1);
  EXPECT_THROW(index.Insert(vec.data(), 30), std::invalid_argument);
  EXPECT_THROW(index.Insert(vec.data(), 5), std::invalid_argument);
  EXPECT_THROW(index.Insert(vec.data(), -1), std::invalid_argument);
  expect_unchanged("insert id below the next id");

  // The next id is the last id + 1: 31 is accepted, and gaps are allowed.
  index.Insert(vec.data(), 31);
  index.Insert(vec.data(), 100);
  EXPECT_THROW(index.Insert(vec.data(), 100), std::invalid_argument);
  EXPECT_EQ(index.Insert(vec.data()), 101);
  EXPECT_EQ(index.live_count(), 6u);
  EXPECT_EQ(index.version(), 3u);
}

// Non-exhaustive λ: results are approximate, so oracle identity does not
// apply — but every returned id must be a survivor, rankings must be
// sorted, and recall against the recomputed exact answers should be decent
// on clustered data. This is the mode production queries run in.
TEST(DynamicOracleEquivalence, ApproximateModeInvariants) {
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 24;
  lccs.lambda = 60;
  lccs.w = 8.0;
  DynamicIndex::Options options;
  options.dim = 16;
  options.rebuild_threshold = 64;
  options.background_rebuild = false;
  DynamicIndex index(
      [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); },
      options);

  dataset::SyntheticConfig synth;
  synth.n = 600;
  synth.num_queries = 20;
  synth.dim = 16;
  synth.num_clusters = 5;
  synth.center_scale = 20.0;
  synth.cluster_stddev = 0.5;
  synth.seed = 7;
  const auto data = dataset::GenerateClustered(synth);
  index.Build(data);

  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> vec(synth.dim);
    rng.FillGaussian(vec.data(), vec.size());
    index.Insert(vec.data());
  }
  for (int32_t id = 0; id < 300; id += 3) index.Remove(id);
  ASSERT_EQ(index.live_count(), 600u + 200u - 100u);

  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto result = index.Query(data.queries.Row(q), 10);
    EXPECT_LE(result.size(), 10u);
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_TRUE(index.Contains(result[i].id))
          << "query " << q << " returned dead id " << result[i].id;
      if (i > 0) {
        EXPECT_LE(result[i - 1].dist, result[i].dist);
      }
    }
  }
  const double recall = eval::DynamicRecall(index, data.queries, 10);
  EXPECT_GT(recall, 0.5) << "approximate recall collapsed after mutations";
}

// Regression for the tombstone under-fetch bug: the wrapped scheme fetched
// λ + k - 1 candidates and *then* dropped tombstoned rows, so with enough
// base tombstones the verified set thinned below k while live rows existed.
// Every remove stamps its epoch row. With the fix, the snapshot
// over-fetches by the stamped-row count, making the search exhaustive here
// (budget ≥ n), so the answer must equal the brute-force k-NN over the
// survivors exactly — ids and bit-identical distances.
TEST(DynamicIndexTest, DeleteHeavyEpochStillReturnsK) {
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 16;
  lccs.lambda = 100;
  lccs.w = 4.0;
  DynamicIndex::Options options;
  options.dim = kDim;
  options.rebuild_threshold = 1 << 20;  // no consolidation mid-test
  options.background_rebuild = false;
  DynamicIndex index(
      [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); },
      options);

  dataset::SyntheticConfig synth;
  synth.n = 400;
  synth.num_queries = 12;
  synth.dim = kDim;
  synth.num_clusters = 6;
  synth.center_scale = 16.0;
  synth.cluster_stddev = 1.0;
  synth.seed = 21;
  const auto data = dataset::GenerateClustered(synth);
  index.Build(data);

  // Tombstone 3 of every 4 rows: 300 dead, 100 live — far more dead rows
  // than the λ + k - 1 = 109 candidates the old budget fetched.
  for (int32_t id = 0; id < static_cast<int32_t>(synth.n); ++id) {
    if (id % 4 != 0) {
      ASSERT_TRUE(index.Remove(id));
    }
  }
  ASSERT_EQ(index.live_count(), 100u);
  ASSERT_EQ(index.stats().epoch_stamped, 300u);

  const size_t k = 10;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const float* query = data.queries.Row(q);
    // Brute-force oracle over the survivors, same distance kernels.
    std::vector<util::Neighbor> oracle;
    for (int32_t id = 0; id < static_cast<int32_t>(synth.n); id += 4) {
      oracle.push_back(
          {id, util::Distance(data.metric, data.data.Row(id), query, kDim)});
    }
    std::sort(oracle.begin(), oracle.end());
    oracle.resize(k);

    const auto result = index.Query(query, k);
    ASSERT_EQ(result.size(), k) << "under-fetch starved query " << q;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(result[i].id, oracle[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(result[i].dist, oracle[i].dist)
          << "query " << q << " rank " << i;
    }
  }
}

/// A factory whose next call, once armed, signals `entered` and parks until
/// `release` fires. RunRebuild captures the survivors *before* it calls the
/// factory, so a mutation made after `entered` lands exactly in the window
/// between a rebuild's capture and its install.
struct GatedFactory {
  explicit GatedFactory(DynamicIndex::Factory base)
      : released(release.get_future().share()) {
    factory = [this, base] {
      if (armed.exchange(false)) {
        entered.set_value();
        released.wait();
      }
      return base();
    };
  }
  std::atomic<bool> armed{false};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released;
  DynamicIndex::Factory factory;
};

/// Removes `id` from both the index and the model.
void RemoveLive(DynamicIndex& index, Model& model, int32_t id) {
  ASSERT_TRUE(index.Remove(id)) << "id " << id;
  const auto it = std::lower_bound(
      model.live.begin(), model.live.end(), id,
      [](const auto& entry, int32_t value) { return entry.first < value; });
  ASSERT_TRUE(it != model.live.end() && it->first == id);
  model.live.erase(it);
}

// Removes that race a rebuild: a row removed between RunRebuild's capture
// and its install is baked into the new epoch and must be stamped there at
// install. Covers every delete regime — stamps before the rebuild, removes
// racing it (epoch and delta rows, both of which the new epoch holds),
// stamps after the install — against the survivor oracle in exhaustive
// mode, while a snapshot acquired before the rebuild keeps answering
// bit-identically. The parked inserts either fit the
// delta generation the rebuild captured (6) or overflow its 64 slots (70),
// forcing a doubling clone; a captured delta row removed after that clone
// is stamped only in a generation the capture never saw, and the install
// must still find the stamp there.
TEST(DynamicIndexTest, RemovesRacingARebuildStayHidden) {
  for (const IndexConfig& config :
       {ConfigsUnderTest()[0], ConfigsUnderTest()[1]}) {
    for (const uint64_t parked_inserts : {uint64_t{6}, uint64_t{70}}) {
      SCOPED_TRACE(config.name + ", " + std::to_string(parked_inserts) +
                   " parked inserts");
      DynamicIndex::Options options;
      options.dim = kDim;
      options.rebuild_threshold = size_t{1} << 30;
      options.background_rebuild = false;
      GatedFactory gate(config.make);
      DynamicIndex index(gate.factory, options);

      dataset::SyntheticConfig synth;
      synth.n = 80;
      synth.num_queries = 8;
      synth.dim = kDim;
      synth.num_clusters = 4;
      synth.seed = 31;
      const auto data = dataset::GenerateClustered(synth);
      index.Build(data);
      Model model;
      for (size_t i = 0; i < data.n(); ++i) {
        model.Insert(static_cast<int32_t>(i),
                     std::vector<float>(data.data.Row(i),
                                        data.data.Row(i) + kDim));
      }
      model.next_id = static_cast<int32_t>(data.n());
      auto insert = [&](uint64_t payload) {
        const std::vector<float> vec = VectorFromPayload(payload);
        model.Insert(index.Insert(vec.data()), vec);
      };
      for (uint64_t p = 0; p < 30; ++p) insert(500 + p);  // ids 80..109

      const size_t k = 10;
      const size_t nq = data.num_queries();
      auto check_oracle = [&](const DynamicIndex& idx, const char* when) {
        const auto got = idx.QueryBatch(data.queries.Row(0), nq, k, 1);
        for (size_t q = 0; q < nq; ++q) {
          EXPECT_EQ(got[q],
                    SurvivorOracle(config, model, data.queries.Row(q), k))
              << when << " query " << q;
          for (const util::Neighbor& nb : got[q]) {
            EXPECT_TRUE(idx.Contains(nb.id)) << when << " dead id " << nb.id;
          }
        }
      };

      // Stamps before the rebuild: epoch rows and delta rows.
      for (int32_t id = 0; id < 80; id += 5) RemoveLive(index, model, id);
      for (int32_t id = 80; id < 110; id += 6) RemoveLive(index, model, id);
      check_oracle(index, "before the rebuild");
      const Snapshot held = index.AcquireSnapshot();
      const auto held_answers = held.QueryBatch(data.queries.Row(0), nq, k, 1);

      gate.armed.store(true);
      ASSERT_TRUE(index.TriggerRebuild());
      gate.entered.get_future().wait();  // the capture is done
      size_t raced = 0;
      for (int32_t id = 1; id < 110; id += 4) {
        if (!index.Contains(id)) continue;
        RemoveLive(index, model, id);
        ++raced;
      }
      // Rows inserted while the rebuild is parked stay in the delta, and so
      // do their stamps.
      for (uint64_t p = 0; p < parked_inserts; ++p) insert(900 + p);  // 110..
      RemoveLive(index, model, 113);
      // A captured delta row removed after the parked inserts (after the
      // doubling clone, when there is one).
      ASSERT_TRUE(index.Contains(82));
      RemoveLive(index, model, 82);
      ++raced;
      gate.release.set_value();
      index.WaitForRebuild();
      ASSERT_EQ(index.epoch_sequence(), 1u);
      EXPECT_EQ(index.stats().epoch_stamped, raced);
      EXPECT_EQ(index.delta_size(), parked_inserts);
      EXPECT_EQ(index.live_count(), model.live.size());
      EXPECT_FALSE(index.Contains(82));
      EXPECT_FALSE(index.Contains(113));
      EXPECT_TRUE(index.Contains(114));
      check_oracle(index, "after the install");
      EXPECT_EQ(held.QueryBatch(data.queries.Row(0), nq, k, 1), held_answers)
          << "a snapshot pinned before the install changed its answers";

      // Stamps after the install.
      size_t stamped_after = 0;
      for (int32_t id = 2; id < 110; id += 9) {
        if (!index.Contains(id)) continue;
        RemoveLive(index, model, id);
        ++stamped_after;
      }
      EXPECT_EQ(index.stats().epoch_stamped, raced + stamped_after);
      check_oracle(index, "after post-install stamps");
    }
  }
}

// Delete-heavy recall floor in the approximate regime, at the serving ratio
// λ/n = 2% (λ = 2000 over 100k rows in lccs_bench): half the epoch is
// removed across all three regimes — stamped before a rebuild, racing it,
// stamped after the install — plus 30% of the delta. Hidden rows only
// widen the snapshot's over-fetch, so recall@10 against the exact survivors
// must not fall below that of a from-scratch LccsLshIndex with the same
// parameters over the survivors. Measured with these seeds: 0.975 dynamic
// (the 1250 rows stamped since the install are over-fetched on every
// query) against 0.812 from scratch.
TEST(DynamicIndexTest, DeleteHeavyRecallHoldsInApproximateRegime) {
  constexpr int32_t kEpoch = 5000;
  constexpr int32_t kDelta = 500;
  dataset::SyntheticConfig synth;
  synth.n = kEpoch + kDelta;
  synth.num_queries = 100;
  synth.dim = 32;
  synth.num_clusters = 20;
  synth.seed = 41;
  const auto all = dataset::GenerateClustered(synth);
  dataset::Dataset base;
  base.metric = all.metric;
  base.data.Resize(kEpoch, synth.dim);
  std::copy(all.data.Row(0), all.data.Row(0) + kEpoch * synth.dim,
            base.data.Row(0));

  baselines::LccsLshIndex::Params lccs;
  lccs.m = 32;
  lccs.lambda = kEpoch / 50;
  lccs.w = 4.0 * eval::EstimateDistanceScale(base);
  DynamicIndex::Options options;
  options.dim = synth.dim;
  options.rebuild_threshold = size_t{1} << 30;
  options.background_rebuild = false;
  GatedFactory gate(
      [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); });
  DynamicIndex index(gate.factory, options);
  index.Build(base);
  for (int32_t id = kEpoch; id < kEpoch + kDelta; ++id) {
    index.Insert(all.data.Row(static_cast<size_t>(id)));
  }

  // Epoch row r goes in regime r % 8 (0 and 1: before, 2: racing, 3: after
  // the install); delta row r in regime r % 10.
  const auto remove_regime = [&](int32_t epoch_lo, int32_t epoch_hi,
                                 int32_t delta_regime) {
    for (int32_t id = 0; id < kEpoch + kDelta; ++id) {
      const bool hit = id < kEpoch
                           ? id % 8 >= epoch_lo && id % 8 <= epoch_hi
                           : id % 10 == delta_regime;
      if (hit) {
        ASSERT_TRUE(index.Remove(id)) << "id " << id;
      }
    }
  };
  remove_regime(0, 1, 0);
  gate.armed.store(true);
  ASSERT_TRUE(index.TriggerRebuild());
  gate.entered.get_future().wait();
  remove_regime(2, 2, 1);
  gate.release.set_value();
  index.WaitForRebuild();
  remove_regime(3, 3, 2);
  ASSERT_EQ(index.live_count(),
            static_cast<size_t>(kEpoch / 2 + kDelta * 7 / 10));

  const size_t k = 10;
  const double dynamic_recall = eval::DynamicRecall(index, all.queries, k);

  dataset::Dataset survivors;
  survivors.metric = base.metric;
  survivors.data = index.LiveVectors();
  baselines::LccsLshIndex scratch(lccs);
  scratch.Build(survivors);
  baselines::LinearScan exact;
  exact.Build(survivors);
  double scratch_recall = 0.0;
  for (size_t q = 0; q < all.num_queries(); ++q) {
    scratch_recall += eval::Recall(scratch.Query(all.queries.Row(q), k),
                                   exact.Query(all.queries.Row(q), k));
  }
  scratch_recall /= static_cast<double>(all.num_queries());
  EXPECT_GE(dynamic_recall, scratch_recall - 0.02)
      << "from-scratch recall " << scratch_recall;
}

}  // namespace
}  // namespace core
}  // namespace lccs
