// Sharding unit tests for serve::ShardedIndex: the id placement rule,
// k larger than any shard, empty shards, the S = 1 degenerate case (must be
// bit-identical to a single core::DynamicIndex), window rows independent of
// window composition and fan-out, a failing shard failing its whole window,
// and the consolidation scheduler (MaintainShards policy over
// DynamicIndex::stats snapshots).
//
// Shard configurations run in exhaustive-verification mode where oracle
// identity is asserted, exactly like tests/test_dynamic_index.cc.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "core/dynamic_index.h"
#include "dataset/synthetic.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "util/random.h"

namespace lccs {
namespace serve {
namespace {

constexpr size_t kDim = 10;

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

dataset::Dataset MakeData(size_t n, uint64_t seed, size_t num_queries = 8) {
  dataset::SyntheticConfig config;
  config.n = n;
  config.num_queries = num_queries;
  config.dim = kDim;
  config.num_clusters = 4;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

std::vector<float> RandomVector(util::Rng& rng) {
  std::vector<float> vec(kDim);
  rng.FillGaussian(vec.data(), vec.size());
  return vec;
}

TEST(ShardOf, DeterministicAndInRange) {
  for (const size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    for (int32_t id = 0; id < 1000; ++id) {
      const size_t s = ShardedIndex::ShardOf(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedIndex::ShardOf(id, shards));  // pure function
    }
  }
  // The hash actually spreads consecutive ids: with 4 shards and 1000 ids,
  // no shard should be starved or hoard everything.
  std::vector<size_t> counts(4, 0);
  for (int32_t id = 0; id < 1000; ++id) ++counts[ShardedIndex::ShardOf(id, 4)];
  for (const size_t count : counts) {
    EXPECT_GT(count, 150u);
    EXPECT_LT(count, 350u);
  }
}

// Placement is a pure function of the id: ids below the Build's row count
// go to their range shard (boundaries at s*n/S), all others to ShardOf —
// inserts, and every survivor after a checkpoint restore. Every id must be
// found where it lives, at every range boundary and shard count.
TEST(ShardedIndexIds, GlobalLocalRoundTrip) {
  constexpr int32_t kInserts = 20;
  util::Rng rng(11);
  std::vector<std::vector<float>> inserted;
  for (int32_t i = 0; i < kInserts; ++i) inserted.push_back(RandomVector(rng));

  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{10},
                         size_t{101}}) {
    auto data = MakeData(std::max<size_t>(n, 1), 7);
    if (n == 0) data.data.Resize(0, kDim);
    const int32_t built = static_cast<int32_t>(n);
    for (const size_t shards : {size_t{1}, size_t{3}, size_t{4}, size_t{8}}) {
      ShardedIndex::Options options;
      options.num_shards = shards;
      // Phase 0: after Build; 1: after inserts, which continue the id
      // sequence whichever shard they hash to; 2: after
      // RestoreCheckpointState(CaptureCheckpointState()) of phase 1.
      for (int phase = 0; phase < 3; ++phase) {
        SCOPED_TRACE("n " + std::to_string(n) + " S " +
                     std::to_string(shards) + " phase " +
                     std::to_string(phase));
        auto index =
            std::make_unique<ShardedIndex>(LinearScanFactory(), options);
        index->Build(data);
        if (phase >= 1) {
          for (int32_t i = 0; i < kInserts; ++i) {
            ASSERT_EQ(index->Insert(inserted[static_cast<size_t>(i)].data()),
                      built + i);
          }
        }
        if (phase == 2) {
          auto restored =
              std::make_unique<ShardedIndex>(LinearScanFactory(), options);
          restored->RestoreCheckpointState(index->CaptureCheckpointState());
          index = std::move(restored);
        }
        const int32_t num_ids = built + (phase >= 1 ? kInserts : 0);
        const auto vector_of = [&](int32_t id) {
          return id < built ? data.data.Row(static_cast<size_t>(id))
                            : inserted[static_cast<size_t>(id - built)].data();
        };

        // Every id resolves and its vector round-trips: querying a stored
        // vector returns its own id at distance 0 first (exact mode).
        for (int32_t id = 0; id < num_ids; ++id) {
          ASSERT_TRUE(index->Contains(id)) << "id " << id;
          const auto result = index->Query(vector_of(id), 1);
          ASSERT_EQ(result.size(), 1u);
          EXPECT_EQ(result[0].id, id);
          EXPECT_EQ(result[0].dist, 0.0);
        }

        // LiveVectors is the id-ascending union of the shards.
        std::vector<int32_t> ids;
        const util::Matrix live = index->LiveVectors(&ids);
        ASSERT_EQ(ids.size(), static_cast<size_t>(num_ids));
        for (size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(ids[i], static_cast<int32_t>(i));
          for (size_t j = 0; j < kDim; ++j) {
            EXPECT_EQ(live.At(i, j), vector_of(ids[i])[j])
                << "row " << i << " col " << j;
          }
        }

        // Each id is removed exactly once; never-assigned ids are refused.
        EXPECT_FALSE(index->Remove(-1));
        EXPECT_FALSE(index->Remove(num_ids));
        EXPECT_FALSE(index->Contains(num_ids));
        for (int32_t id = 0; id < num_ids; ++id) {
          EXPECT_TRUE(index->Remove(id)) << "id " << id;
          EXPECT_FALSE(index->Remove(id)) << "id " << id;
          EXPECT_FALSE(index->Contains(id)) << "id " << id;
        }
        EXPECT_EQ(index->live_count(), 0u);
      }
    }
  }
}

TEST(ShardedIndexQueries, KLargerThanAnyShard) {
  const auto data = MakeData(10, 3);
  ShardedIndex::Options options;
  options.num_shards = 4;
  ShardedIndex index(ExhaustiveLccsFactory(), options);
  index.Build(data);

  // k = 50 over 10 points spread across 4 shards: every survivor comes
  // back, globally sorted, no padding and no duplicates.
  auto result = index.Query(data.queries.Row(0), 50);
  ASSERT_EQ(result.size(), 10u);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  std::vector<int32_t> seen;
  for (const auto& nb : result) seen.push_back(nb.id);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));

  ASSERT_TRUE(index.Remove(4));
  ASSERT_TRUE(index.Remove(7));
  result = index.Query(data.queries.Row(0), 50);
  ASSERT_EQ(result.size(), 8u);
  for (const auto& nb : result) {
    EXPECT_NE(nb.id, 4);
    EXPECT_NE(nb.id, 7);
  }
}

TEST(ShardedIndexQueries, EmptyShardsAndEmptyIndex) {
  // Fresh index, never built: queries answer empty, inserts work from
  // Options::dim alone.
  ShardedIndex::Options options;
  options.num_shards = 8;
  options.dim = kDim;
  ShardedIndex empty(LinearScanFactory(), options);
  util::Rng rng(5);
  const auto probe = RandomVector(rng);
  EXPECT_TRUE(empty.Query(probe.data(), 5).empty());
  EXPECT_EQ(empty.live_count(), 0u);
  EXPECT_EQ(empty.Insert(probe.data()), 0);
  const auto result = empty.Query(probe.data(), 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);

  // 3 points across 8 shards: at least 5 shards are empty, and the empty
  // ones must neither contribute results nor break the merge.
  const auto data = MakeData(3, 9);
  ShardedIndex sparse(LinearScanFactory(), options);
  sparse.Build(data);
  const auto stats = sparse.ShardStats();
  ASSERT_EQ(stats.size(), 8u);
  size_t empty_shards = 0;
  size_t total = 0;
  for (const auto& s : stats) {
    total += s.live;
    if (s.live == 0 && s.epoch_rows == 0) ++empty_shards;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_GE(empty_shards, 5u);
  EXPECT_EQ(sparse.Query(data.queries.Row(0), 10).size(), 3u);
}

// S = 1 degenerates bit-identically to a single DynamicIndex: same global
// ids, same results — including in a *non-exhaustive* (approximate) LCCS
// configuration, where identity only holds if the sharded path adds exactly
// nothing (same factory, same build inputs, same ids, 1-way merge).
TEST(ShardedIndexDegenerate, SingleShardBitIdenticalToDynamicIndex) {
  baselines::LccsLshIndex::Params params;
  params.m = 24;
  params.lambda = 40;  // approximate mode
  params.w = 8.0;
  auto factory = [params] {
    return std::make_unique<baselines::LccsLshIndex>(params);
  };

  const auto data = MakeData(300, 21, 12);

  ShardedIndex::Options sharded_options;
  sharded_options.num_shards = 1;
  sharded_options.rebuild_threshold = 16;
  ShardedIndex sharded(factory, sharded_options);
  sharded.Build(data);

  core::DynamicIndex::Options dynamic_options;
  dynamic_options.dim = kDim;
  dynamic_options.rebuild_threshold = 16;
  dynamic_options.background_rebuild = false;
  core::DynamicIndex dynamic(factory, dynamic_options);
  dynamic.Build(data);

  const auto check_identical = [&](const char* where) {
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const auto got = sharded.Query(data.queries.Row(q), 10);
      const auto want = dynamic.Query(data.queries.Row(q), 10);
      ASSERT_EQ(got.size(), want.size()) << where << " query " << q;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << where << " query " << q;
        EXPECT_EQ(got[i].dist, want[i].dist) << where << " query " << q;
      }
    }
  };
  check_identical("after build");

  util::Rng rng(33);
  for (int i = 0; i < 40; ++i) {
    const auto vec = RandomVector(rng);
    ASSERT_EQ(sharded.Insert(vec.data()), dynamic.Insert(vec.data()));
  }
  for (int32_t id = 0; id < 100; id += 7) {
    ASSERT_EQ(sharded.Remove(id), dynamic.Remove(id));
  }
  check_identical("after mutations");

  // Batched path degenerates identically too.
  const auto batched =
      sharded.QueryBatch(data.queries.data(), data.num_queries(), 10);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(batched[q], dynamic.Query(data.queries.Row(q), 10));
  }
}

TEST(ShardedIndexBatch, BatchIdenticalToSequentialQueries) {
  const auto data = MakeData(120, 17, 16);
  ShardedIndex::Options options;
  options.num_shards = 4;
  ShardedIndex index(ExhaustiveLccsFactory(), options);
  index.Build(data);
  util::Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const auto vec = RandomVector(rng);
    index.Insert(vec.data());
  }
  for (int32_t id = 0; id < 120; id += 5) index.Remove(id);

  for (const size_t threads : {size_t{1}, size_t{0}}) {
    const auto batched =
        index.QueryBatch(data.queries.data(), data.num_queries(), 7, threads);
    ASSERT_EQ(batched.size(), data.num_queries());
    for (size_t q = 0; q < data.num_queries(); ++q) {
      EXPECT_EQ(batched[q], index.Query(data.queries.Row(q), 7))
          << "threads " << threads << " query " << q;
    }
  }
}

// A window's rows depend on nothing but themselves: not on the window's
// size or its other rows, and not on the fan-out. Approximate LCCS shards
// (λ far below n/S, so the bound cascade really prunes) over a mutated
// index, from the degenerate S = 1 to more shards than pool workers; every
// row must equal the same query answered alone on the fully sequential path
// (a window of one with num_threads = 1).
TEST(ShardedIndexBatch, RowsIndependentOfWindowCompositionAndFanOut) {
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 12;  // n/S >= 100 rows per shard
  params.w = 4.0;
  const auto approximate = [params] {
    return std::make_unique<baselines::LccsLshIndex>(params);
  };
  constexpr size_t kRows = 800;
  constexpr size_t kQueries = 64;
  constexpr size_t kK = 10;
  const auto data = MakeData(kRows, 61, kQueries);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                              size_t{8}}) {
    // The same mutations on an exact single-shard index give the oracle
    // that proves the LCCS configuration is genuinely approximate.
    ShardedIndex::Options options;
    options.num_shards = shards;
    ShardedIndex index(approximate, options);
    options.num_shards = 1;
    ShardedIndex exact(LinearScanFactory(), options);
    index.Build(data);
    exact.Build(data);
    util::Rng rng(70 + shards);
    for (int i = 0; i < 40; ++i) {
      const auto vec = RandomVector(rng);
      ASSERT_EQ(index.Insert(vec.data()), exact.Insert(vec.data()));
    }
    for (int32_t id = 0; id < static_cast<int32_t>(kRows); id += 9) {
      ASSERT_EQ(index.Remove(id), exact.Remove(id));
    }
    const ShardedSnapshot snap = index.AcquireSnapshot();

    std::vector<std::vector<util::Neighbor>> alone(kQueries);
    size_t inexact = 0;
    for (size_t q = 0; q < kQueries; ++q) {
      alone[q] = snap.QueryBatch(data.queries.Row(q), 1, kK, 1)[0];
      if (alone[q] != exact.Query(data.queries.Row(q), kK)) ++inexact;
      EXPECT_EQ(snap.Query(data.queries.Row(q), kK), alone[q])
          << "S " << shards << " query " << q;
    }
    EXPECT_GT(inexact, 0u) << "S " << shards << ": shards answered exactly";

    for (const size_t window : {size_t{1}, size_t{7}, size_t{64}}) {
      for (const size_t threads : {size_t{0}, size_t{1}}) {
        for (size_t begin = 0; begin < kQueries; begin += window) {
          const size_t n = std::min(window, kQueries - begin);
          const auto rows =
              snap.QueryBatch(data.queries.Row(begin), n, kK, threads);
          ASSERT_EQ(rows.size(), n);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(rows[i], alone[begin + i])
                << "S " << shards << " window " << window << " threads "
                << threads << " query " << begin + i;
          }
        }
      }
    }
  }
}

// Shared state of the shards FaultyScan builds: the shard whose Build takes
// ticket `fail_ticket` throws from QueryBatch while `armed`; the others
// count the window tasks they start and finish.
struct FaultProbe {
  std::atomic<int> next_ticket{0};
  int fail_ticket = 0;
  std::atomic<bool> armed{true};
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
};

class FaultyScan : public baselines::LinearScan {
 public:
  explicit FaultyScan(std::shared_ptr<FaultProbe> probe)
      : probe_(std::move(probe)) {}

  void Build(const dataset::Dataset& data) override {
    failing_ = probe_->next_ticket.fetch_add(1) == probe_->fail_ticket;
    LinearScan::Build(data);
  }

  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads) const override {
    if (!probe_->armed.load()) {
      return LinearScan::QueryBatch(queries, num_queries, k, num_threads);
    }
    if (failing_) throw std::runtime_error("injected shard failure");
    probe_->started.fetch_add(1);
    // Slow enough that a rethrow racing ahead of this task would be seen.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto result = LinearScan::QueryBatch(queries, num_queries, k, num_threads);
    probe_->finished.fetch_add(1);
    return result;
  }

 private:
  std::shared_ptr<FaultProbe> probe_;
  bool failing_ = false;
};

// Builds a 4-shard index whose shard 0 (first in Build order, and the
// scatter's caller-run chunk) fails while the probe is armed.
std::unique_ptr<ShardedIndex> MakeFaultyIndex(
    const std::shared_ptr<FaultProbe>& probe, const dataset::Dataset& data) {
  ShardedIndex::Options options;
  options.num_shards = 4;
  auto index = std::make_unique<ShardedIndex>(
      [probe] { return std::make_unique<FaultyScan>(probe); }, options);
  index->Build(data);
  return index;
}

TEST(ShardedIndexFailure, FailingShardFailsWindowAfterEveryShardTask) {
  const auto data = MakeData(200, 83, 8);
  auto probe = std::make_shared<FaultProbe>();
  const auto index = MakeFaultyIndex(probe, data);
  const ShardedSnapshot snap = index->AcquireSnapshot();

  EXPECT_THROW(snap.QueryBatch(data.queries.data(), 8, 5), std::runtime_error);
  // The scatter splits into at least two tasks, and the one without shard 0
  // runs to completion before the error surfaces.
  EXPECT_GE(probe->started.load(), 2);
  EXPECT_EQ(probe->finished.load(), probe->started.load());

  EXPECT_THROW(snap.Query(data.queries.Row(0), 5), std::runtime_error);
  EXPECT_EQ(probe->finished.load(), probe->started.load());

  probe->armed = false;
  EXPECT_EQ(snap.Query(data.queries.Row(0), 5).size(), 5u);
}

TEST(ShardedIndexFailure, ServerBreaksFailedWindowAndServesTheNext) {
  const auto data = MakeData(200, 89, 8);
  auto probe = std::make_shared<FaultProbe>();
  const auto index = MakeFaultyIndex(probe, data);

  Server::Options options;
  options.max_batch = 4;
  options.max_delay_us = 10'000'000;  // windows close only when full
  Server server(index.get(), options);

  std::vector<std::future<QueryResponse>> failed;
  for (size_t q = 0; q < 4; ++q) {
    failed.push_back(server.SubmitQuery(data.queries.Row(q), 5));
  }
  for (auto& future : failed) {
    EXPECT_THROW(future.get(), std::runtime_error);
  }
  EXPECT_EQ(probe->finished.load(), probe->started.load());

  probe->armed = false;
  std::vector<std::future<QueryResponse>> served;
  for (size_t q = 4; q < 8; ++q) {
    served.push_back(server.SubmitQuery(data.queries.Row(q), 5));
  }
  for (size_t i = 0; i < served.size(); ++i) {
    const QueryResponse response = served[i].get();
    EXPECT_EQ(response.batch_size, 4u);
    EXPECT_EQ(response.neighbors, index->Query(data.queries.Row(4 + i), 5));
  }
  server.Stop();
}

TEST(ShardedIndexScheduler, MaintainShardsConsolidatesOverThreshold) {
  ShardedIndex::Options options;
  options.num_shards = 4;
  options.dim = kDim;
  options.rebuild_threshold = 8;
  options.max_concurrent_rebuilds = 1;
  ShardedIndex index(LinearScanFactory(), options);

  util::Rng rng(44);
  for (int i = 0; i < 64; ++i) {
    const auto vec = RandomVector(rng);
    index.Insert(vec.data());
  }

  // Everything sits in the deltas: no shard has consolidated yet.
  size_t delta_total = 0;
  for (const auto& stats : index.ShardStats()) {
    EXPECT_EQ(stats.epoch_rows, 0u);
    delta_total += stats.delta_rows;
  }
  EXPECT_EQ(delta_total, 64u);

  // Drive the scheduler to quiescence. Each round triggers at most
  // max_concurrent_rebuilds, so a single call must not consolidate every
  // overdue shard at once.
  const size_t first_round = index.MaintainShards();
  EXPECT_EQ(first_round, 1u);
  index.WaitForRebuilds();
  size_t rounds = 1;
  while (index.MaintainShards() > 0) {
    index.WaitForRebuilds();
    ++rounds;
    ASSERT_LT(rounds, 32u) << "scheduler failed to converge";
  }
  EXPECT_GE(rounds, 2u);  // 64 points over 4 shards: several shards overdue

  for (const auto& stats : index.ShardStats()) {
    EXPECT_LT(stats.delta_rows, options.rebuild_threshold);
    EXPECT_FALSE(stats.rebuild_in_flight);
  }
  EXPECT_EQ(index.live_count(), 64u);

  // Consolidation must not have disturbed the id mapping.
  std::vector<int32_t> ids;
  index.LiveVectors(&ids);
  ASSERT_EQ(ids.size(), 64u);
  for (int32_t id = 0; id < 64; ++id) {
    EXPECT_EQ(ids[static_cast<size_t>(id)], id);
  }
}

// A ShardedIndex fed only by inserts, never Built, must still hand its
// spill_dir to the shards: their consolidations stream survivors to flat
// files there instead of materializing heap epochs.
TEST(ShardedIndexStorage, NeverBuiltIndexSpillsConsolidations) {
  std::string dir = ::testing::TempDir() + "/sharded_spill_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ShardedIndex::Options options;
  options.num_shards = 2;
  options.dim = kDim;
  options.rebuild_threshold = 8;
  options.spill_dir = dir;
  {
    ShardedIndex index(LinearScanFactory(), options);
    util::Rng rng(45);
    for (int i = 0; i < 40; ++i) {
      const auto vec = RandomVector(rng);
      index.Insert(vec.data());
    }
    index.ConsolidateAll();
    size_t spill_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("lccs-epoch-", 0) == 0 &&
          entry.path().extension() == ".flat") {
        ++spill_files;
      }
    }
    EXPECT_GE(spill_files, 1u);
    EXPECT_EQ(index.live_count(), 40u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedIndexContract, RejectsZeroShards) {
  ShardedIndex::Options options;
  options.num_shards = 0;
  EXPECT_THROW(ShardedIndex(LinearScanFactory(), options),
               std::invalid_argument);
}

// S shards of a memory-mapped base set must be S zero-copy views of the
// one shared MmapStore — and answer bit-identically to the same shards
// over the heap store (exhaustive-verification configuration, so exact).
TEST(ShardedIndexStorage, ShardsShareOneMmapStoreBitIdentically) {
  const auto data = MakeData(240, 47, 10);
  const std::string flat_path =
      ::testing::TempDir() + "/sharded_base.flat";
  storage::WriteFlatFile(flat_path, *data.data.store());

  dataset::Dataset mapped;
  mapped.metric = data.metric;
  const auto store = storage::MmapStore::Open(flat_path);
  mapped.data = store;
  mapped.queries = data.queries;

  ShardedIndex::Options options;
  options.num_shards = 4;
  ShardedIndex heap_sharded(ExhaustiveLccsFactory(), options);
  ShardedIndex mmap_sharded(ExhaustiveLccsFactory(), options);
  heap_sharded.Build(data);
  mmap_sharded.Build(mapped);

  // Zero-copy: building 4 shards added no copies of the mapped base set —
  // every shard epoch references the one store (use_count grew past the
  // test's own two handles).
  EXPECT_GE(store.use_count(), 2 + 4);

  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(heap_sharded.Query(data.queries.Row(q), 10),
              mmap_sharded.Query(data.queries.Row(q), 10))
        << "query " << q;
  }
  std::remove(flat_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace lccs
