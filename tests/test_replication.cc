// Primary/replica log shipping (serve::LogShipper + serve::Replica) over
// the WAL segment stream, proven three ways:
//
//   * deterministic suites: bootstrap-by-checkpoint + live tailing,
//     resume on reconnect (with and without a re-bootstrap after
//     checkpoint GC), promotion to a self-contained primary — each
//     checked by the **cross-replica checker**: a follower's state at
//     version v must be bit-identical to a sequential oracle replay of
//     the primary's log prefix 1..v, across differing primary/follower
//     shard counts (placement independence, the property the serving
//     tests already pin down for snapshots);
//
//   * mutation tests on that checker: a buggy follower that drops,
//     reorders, or double-applies one shipped record must be rejected
//     with the right diagnostic — a checker that cannot see the bug is
//     no checker (same discipline as the ServeCheckerMutation suite);
//
//   * a kill-injection failover harness in the style of
//     test_wal_recovery.cc: a child process runs a real primary (Server +
//     WAL + LogShipper) over a seeded workload and is SIGKILLed at a
//     seed-derived failpoint hit — mid-append, mid-fsync, or with half a
//     record frame on the wire. The parent runs a live Replica against
//     it, promotes it after the crash, and verifies the promoted state is
//     bit-identical to the oracle replay of everything the follower
//     received — every record that was both acked and shipped survives
//     losing the primary.
//
// This binary has a custom main(): when LCCS_REPL_CHILD is set it runs
// the primary workload instead of gtest, so it links gtest without
// gtest_main.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "dataset/synthetic.h"
#include "serve/replication.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "storage/flat_file.h"
#include "util/metric.h"
#include "util/random.h"

extern char** environ;

namespace lccs {
namespace serve {
namespace {

constexpr size_t kDim = 8;
constexpr size_t kInitialRows = 24;
/// Mutations the crash child plans (it rarely lives to apply them all).
constexpr size_t kChildOps = 260;

core::DynamicIndex::Factory LinearScanFactory() {
  return [] { return std::make_unique<baselines::LinearScan>(); };
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

uint64_t MixOp(uint64_t seed, uint64_t i) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + i;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct PlannedOp {
  bool is_insert = false;
  std::vector<float> vec;  ///< insert payload
  int32_t target = -1;     ///< remove target
};

/// Op `i` of the seeded workload, identical to test_wal_recovery.cc's:
/// parent, child and oracle all derive it independently from the seed.
PlannedOp PlanOp(uint64_t seed, uint64_t i) {
  const uint64_t h = MixOp(seed, i);
  PlannedOp op;
  op.is_insert = h % 10 < 7;
  if (op.is_insert) {
    op.vec = VectorFromPayload(h);
  } else {
    op.target = static_cast<int32_t>((h >> 8) % (kInitialRows + i));
  }
  return op;
}

// ---------------------------------------------------------------------------
// Oracle: sequential replay of the planned workload
// ---------------------------------------------------------------------------

struct OracleReplay {
  std::map<int32_t, std::vector<float>> live;
  int32_t next_id = 0;
};

OracleReplay ReplayOracle(uint64_t seed, uint64_t upto) {
  OracleReplay oracle;
  const dataset::Dataset initial = InitialData(kInitialRows, seed);
  oracle.next_id = static_cast<int32_t>(kInitialRows);
  for (size_t i = 0; i < kInitialRows; ++i) {
    oracle.live.emplace(
        static_cast<int32_t>(i),
        std::vector<float>(initial.data.Row(i), initial.data.Row(i) + kDim));
  }
  for (uint64_t v = 1; v <= upto; ++v) {
    PlannedOp op = PlanOp(seed, v);
    if (op.is_insert) {
      oracle.live.emplace(oracle.next_id, std::move(op.vec));
      ++oracle.next_id;
    } else {
      oracle.live.erase(op.target);
    }
  }
  return oracle;
}

std::vector<util::Neighbor> OracleTopK(
    const std::map<int32_t, std::vector<float>>& live, const float* query,
    size_t k) {
  std::vector<util::Neighbor> all;
  all.reserve(live.size());
  for (const auto& [id, vec] : live) {
    all.push_back(util::Neighbor{
        id, util::Distance(util::Metric::kEuclidean, query, vec.data(), kDim)});
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

// ---------------------------------------------------------------------------
// The cross-replica checker
// ---------------------------------------------------------------------------

/// Black-box cross-replica contract: a follower claiming to be at version
/// `v` must hold exactly the state of a sequential oracle replay of the
/// primary's log prefix 1..v — same log position, same surviving ids, the
/// same vector bytes, and bit-identical exact query answers, regardless of
/// how either side is sharded. Returns a diagnostic; empty = accepted.
/// Written as a predicate (not ASSERTs) so the mutation suite can assert
/// *which* diagnostic a buggy follower trips.
std::string CheckReplicaAgainstOracle(const ShardedIndex& follower,
                                      uint64_t seed, uint64_t v) {
  if (follower.state_version() != v) {
    return "log position mismatch: follower at version " +
           std::to_string(follower.state_version()) + ", primary prefix is " +
           std::to_string(v);
  }
  const OracleReplay oracle = ReplayOracle(seed, v);
  std::vector<int32_t> ids;
  const util::Matrix vectors = follower.LiveVectors(&ids);
  if (ids.size() != oracle.live.size()) {
    return "survivor set mismatch: follower holds " +
           std::to_string(ids.size()) + " live rows, oracle " +
           std::to_string(oracle.live.size());
  }
  size_t row = 0;
  for (const auto& [id, vec] : oracle.live) {
    if (ids[row] != id) {
      return "survivor set mismatch: row " + std::to_string(row) +
             " is id " + std::to_string(ids[row]) + ", oracle " +
             std::to_string(id);
    }
    if (std::memcmp(vectors.Row(row), vec.data(), kDim * sizeof(float)) != 0) {
      return "vector mismatch: id " + std::to_string(id) +
             " holds different bytes than the oracle";
    }
    ++row;
  }
  for (uint64_t q = 0; q < 2; ++q) {
    const std::vector<float> query = VectorFromPayload(seed ^ (7777 + q));
    const std::vector<util::Neighbor> got = follower.Query(query.data(), 5);
    const std::vector<util::Neighbor> want =
        OracleTopK(oracle.live, query.data(), 5);
    if (got.size() != want.size()) return "query mismatch: result size";
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].id != want[i].id || got[i].dist != want[i].dist) {
        return "query mismatch: rank " + std::to_string(i);
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Scratch helpers
// ---------------------------------------------------------------------------

void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
        continue;
      std::remove((dir + "/" + e->d_name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/lccs_repl_XXXXXX";
    if (::mkdtemp(buf) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = buf;
  }
  ~TempDir() { RemoveTree(path); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::unique_ptr<ShardedIndex> MakeIndex(size_t num_shards, uint64_t seed) {
  ShardedIndex::Options options;
  options.num_shards = num_shards;
  auto index = std::make_unique<ShardedIndex>(LinearScanFactory(), options);
  index->Build(InitialData(kInitialRows, seed));
  return index;
}

void ApplyAndLog(ShardedIndex* index, WriteAheadLog* wal, uint64_t seed,
                 uint64_t first_op, uint64_t last_op) {
  for (uint64_t i = first_op; i <= last_op; ++i) {
    const PlannedOp op = PlanOp(seed, i);
    WriteAheadLog::Record record;
    if (op.is_insert) {
      const ShardedIndex::MutationResult result =
          index->ApplyInsert(op.vec.data());
      record.version = result.state_version;
      record.is_insert = true;
      record.id = result.id;
      record.vec = op.vec;
    } else {
      const ShardedIndex::MutationResult result = index->ApplyRemove(op.target);
      record.version = result.state_version;
      record.is_insert = false;
      record.id = op.target;
    }
    wal->Append(record);
  }
  wal->Sync();
}

Replica::Options ReplicaOptions(size_t num_shards) {
  Replica::Options options;
  options.factory = LinearScanFactory();
  options.num_shards = num_shards;
  options.reconnect_backoff_us = 5000;
  options.recv_timeout_us = 20000;
  return options;
}

constexpr uint64_t kWaitUs = 20u * 1000 * 1000;  ///< generous CI deadline

// ---------------------------------------------------------------------------
// Deterministic suites
// ---------------------------------------------------------------------------

TEST(Replication, BootstrapAndLiveTail) {
  const uint64_t seed = 101;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog wal(wal_dir.path);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 60);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();

  Replica replica("127.0.0.1", shipper.port(), ReplicaOptions(2));
  replica.Start();
  // Bootstrap carries the pre-connection history (Build state + ops 1..60,
  // none of which the follower ever saw as records).
  ASSERT_TRUE(replica.WaitForVersion(60, kWaitUs))
      << replica.progress().error;
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 60), "");
  {
    const Replica::Progress progress = replica.progress();
    EXPECT_EQ(progress.bootstraps, 1u);
    EXPECT_EQ(progress.applied_version, 60u);
    EXPECT_TRUE(progress.connected);
    EXPECT_TRUE(progress.error.empty());
  }

  // Live tail: records applied on the primary stream over as raw frames.
  ApplyAndLog(primary.get(), &wal, seed, 61, 110);
  ASSERT_TRUE(replica.WaitForVersion(110, kWaitUs))
      << replica.progress().error;
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 110), "");
  EXPECT_EQ(replica.progress().bootstraps, 1u);  // tail, not re-bootstrap

  // Caught up means no lag: an idle heartbeat (one per
  // LogShipper::Options::heartbeat_us) reports the primary's head and
  // nothing left to ship. Wait out two heartbeat periods so one sent after
  // the tail has landed, then poll until the lag reads zero.
  const uint64_t heartbeat_us = LogShipper::Options{}.heartbeat_us;
  Replica::Progress caught_up;
  for (uint64_t waited_us = 0; waited_us < kWaitUs; waited_us += 1000) {
    caught_up = replica.progress();
    if (waited_us >= 2 * heartbeat_us && caught_up.lag_records == 0 &&
        caught_up.lag_bytes == 0) {
      break;
    }
    ::usleep(1000);
  }
  EXPECT_EQ(caught_up.primary_version, 110u);
  EXPECT_EQ(caught_up.lag_records, 0u);
  EXPECT_EQ(caught_up.lag_bytes, 0u);

  // Snapshot serving off the follower names its cut.
  const ShardedSnapshot snapshot = replica.AcquireSnapshot();
  EXPECT_EQ(snapshot.state_version(), 110u);

  // Primary-side observability mirrors into Server::Stats.
  Server::Options server_options;
  server_options.wal = &wal;
  server_options.shipper = &shipper;
  Server server(primary.get(), server_options);
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.followers_connected, 1u);
  EXPECT_EQ(stats.followers_active, 1u);
  EXPECT_EQ(stats.shipped_version, 110u);
  EXPECT_EQ(stats.records_shipped, 50u);  // 61..110; 1..60 went by checkpoint

  replica.Stop();
  shipper.Stop();
}

TEST(Replication, CrossReplicaCheckerAcrossShardCounts) {
  const uint64_t seed = 113;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog::Options wal_options;
  wal_options.segment_bytes = 1024;  // rotations mid-stream
  WriteAheadLog wal(wal_dir.path, wal_options);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 25);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();

  // One primary, three concurrently-attached followers with different
  // shard counts; the checker must accept every one at every cut.
  std::vector<std::unique_ptr<Replica>> replicas;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    replicas.push_back(std::make_unique<Replica>(
        "127.0.0.1", shipper.port(), ReplicaOptions(shards)));
    replicas.back()->Start();
  }
  for (const uint64_t cut : {uint64_t{25}, uint64_t{70}, uint64_t{120}}) {
    if (primary->state_version() < cut) {
      ApplyAndLog(primary.get(), &wal, seed, primary->state_version() + 1,
                  cut);
    }
    for (auto& replica : replicas) {
      ASSERT_TRUE(replica->WaitForVersion(cut, kWaitUs))
          << "cut " << cut << ": " << replica->progress().error;
      // The primary is quiescent at `cut`, so the follower is exactly
      // there — not merely past it — and the checker sees a full prefix.
      EXPECT_EQ(CheckReplicaAgainstOracle(*replica->index(), seed, cut), "")
          << "follower shards " << replica->index()->num_shards();
    }
  }
  for (auto& replica : replicas) replica->Stop();
  shipper.Stop();
}

TEST(Replication, ResumeAfterReconnectWithoutRebootstrap) {
  const uint64_t seed = 127;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog wal(wal_dir.path);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 40);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();

  Replica replica("127.0.0.1", shipper.port(), ReplicaOptions(2));
  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(40, kWaitUs)) << replica.progress().error;
  replica.Stop();

  // The primary moves on while the follower is away; on reconnect the
  // stream resumes at version 41 — the follower keeps its state, no
  // checkpoint is re-sent.
  ApplyAndLog(primary.get(), &wal, seed, 41, 90);
  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(90, kWaitUs)) << replica.progress().error;
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 90), "");
  EXPECT_EQ(replica.progress().bootstraps, 1u) << "resume re-bootstrapped";

  replica.Stop();
  shipper.Stop();
}

TEST(Replication, RebootstrapsWhenCheckpointGcTruncatedTheResumePoint) {
  const uint64_t seed = 131;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog::Options wal_options;
  wal_options.segment_bytes = 512;  // small segments, so GC truncates
  WriteAheadLog wal(wal_dir.path, wal_options);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 30);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();

  Replica replica("127.0.0.1", shipper.port(), ReplicaOptions(2));
  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(30, kWaitUs)) << replica.progress().error;
  replica.Stop();

  // While the follower is away, the primary checkpoints and GC reclaims
  // the segments holding versions 31..: resume at 31 is impossible, the
  // handshake must fall back to a fresh bootstrap.
  ApplyAndLog(primary.get(), &wal, seed, 31, 100);
  wal.WriteCheckpoint(primary->CaptureCheckpointState());
  ASSERT_GT(WriteAheadLog::ListSegments(wal_dir.path)
                .front()
                .first_version,
            31u)
      << "GC did not truncate; the test would not exercise re-bootstrap";

  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(100, kWaitUs))
      << replica.progress().error;
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 100), "");
  EXPECT_EQ(replica.progress().bootstraps, 2u);

  replica.Stop();
  shipper.Stop();
}

TEST(Replication, PromotedFollowerIsADurablePrimary) {
  const uint64_t seed = 137;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog wal(wal_dir.path);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 50);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();
  Replica replica("127.0.0.1", shipper.port(), ReplicaOptions(2));
  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(50, kWaitUs)) << replica.progress().error;
  shipper.Stop();  // the primary is gone

  // Promote: the follower seals its applied state into a fresh log.
  TempDir promoted_dir;
  std::unique_ptr<WriteAheadLog> promoted_wal =
      replica.Promote(promoted_dir.path, WriteAheadLog::Options{});
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 50), "");
  EXPECT_EQ(WriteAheadLog::ListCheckpoints(promoted_dir.path).size(), 1u)
      << "promotion must seal an initial checkpoint";

  // The promoted node acks writes through a real Server over its own log.
  {
    Server::Options server_options;
    server_options.wal = promoted_wal.get();
    Server server(replica.index(), server_options);
    for (uint64_t i = 51; i <= 70; ++i) {
      const PlannedOp op = PlanOp(seed, i);
      const MutationResponse ack =
          (op.is_insert ? server.SubmitInsert(op.vec.data())
                        : server.SubmitRemove(op.target))
              .get();
      EXPECT_EQ(ack.state_version, i);
    }
  }
  EXPECT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, 70), "");

  // And its log is self-contained: recovery from the promoted directory
  // alone — the old primary's log never existed as far as it knows —
  // reconstructs the whole history.
  promoted_wal.reset();
  auto recovered = MakeIndex(4, seed);
  WriteAheadLog recovery_wal(promoted_dir.path);
  const WriteAheadLog::RecoveryResult result =
      recovery_wal.Recover(recovered.get());
  EXPECT_EQ(result.checkpoint_version, 50u);
  EXPECT_EQ(result.final_version, 70u);
  EXPECT_EQ(CheckReplicaAgainstOracle(*recovered, seed, 70), "");

  // A promotion target that already holds history is refused: splicing a
  // follower's state into an existing log would forge a hybrid history.
  EXPECT_THROW(replica.Promote(wal_dir.path, WriteAheadLog::Options{}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Mutation tests: the checker must reject buggy followers
// ---------------------------------------------------------------------------

/// The shipped stream as a record list — what a follower receives.
std::vector<WriteAheadLog::Record> ShippedRecords(uint64_t seed, uint64_t n) {
  auto primary = MakeIndex(3, seed);
  std::vector<WriteAheadLog::Record> records;
  records.reserve(n);
  for (uint64_t i = 1; i <= n; ++i) {
    const PlannedOp op = PlanOp(seed, i);
    WriteAheadLog::Record record;
    if (op.is_insert) {
      const ShardedIndex::MutationResult result =
          primary->ApplyInsert(op.vec.data());
      record.version = result.state_version;
      record.is_insert = true;
      record.id = result.id;
      record.vec = op.vec;
    } else {
      const ShardedIndex::MutationResult result =
          primary->ApplyRemove(op.target);
      record.version = result.state_version;
      record.is_insert = false;
      record.id = op.target;
    }
    records.push_back(std::move(record));
  }
  return records;
}

/// A follower with its version/divergence guards ripped out — the buggy
/// replica the mutation suite injects. It applies whatever it is handed,
/// like Replica::ApplyFrame would if every check were deleted.
void ApplyBlindly(ShardedIndex* follower,
                  const std::vector<WriteAheadLog::Record>& records) {
  for (const WriteAheadLog::Record& record : records) {
    if (record.is_insert) {
      follower->ApplyInsert(record.vec.data());
    } else {
      follower->ApplyRemove(record.id);
    }
  }
}

TEST(ReplCheckerMutation, FaithfulFollowerIsAccepted) {
  const uint64_t seed = 149;
  const uint64_t n = 80;
  const std::vector<WriteAheadLog::Record> records = ShippedRecords(seed, n);
  auto follower = MakeIndex(2, seed);
  ApplyBlindly(follower.get(), records);
  EXPECT_EQ(CheckReplicaAgainstOracle(*follower, seed, n), "");
}

TEST(ReplCheckerMutation, DroppedRecordIsRejected) {
  const uint64_t seed = 149;
  const uint64_t n = 80;
  std::vector<WriteAheadLog::Record> records = ShippedRecords(seed, n);
  // Drop one shipped insert mid-stream: every later insert's id shifts,
  // so the survivor sets diverge even at the shorter prefix the buggy
  // follower claims to be at.
  const size_t victim = 30;
  ASSERT_TRUE(records[victim].is_insert);
  records.erase(records.begin() + victim);
  auto follower = MakeIndex(2, seed);
  ApplyBlindly(follower.get(), records);
  // The shift surfaces as a survivor-set divergence or as the same id
  // holding a different vector — either way, a content mismatch at the
  // shorter prefix the buggy follower claims.
  const std::string verdict = CheckReplicaAgainstOracle(*follower, seed, n - 1);
  EXPECT_TRUE(verdict.find("survivor set mismatch") != std::string::npos ||
              verdict.find("vector mismatch") != std::string::npos)
      << "verdict: " << verdict;
  // And claiming the full prefix instead trips the position check.
  const std::string at_n = CheckReplicaAgainstOracle(*follower, seed, n);
  EXPECT_NE(at_n.find("log position mismatch"), std::string::npos)
      << "verdict: " << at_n;
}

TEST(ReplCheckerMutation, ReorderedRecordsAreRejected) {
  const uint64_t seed = 149;
  const uint64_t n = 80;
  std::vector<WriteAheadLog::Record> records = ShippedRecords(seed, n);
  // Swap two adjacent shipped inserts: the follower assigns ids in its own
  // apply order, so the two ids end up holding each other's vectors.
  size_t at = 0;
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    if (records[i].is_insert && records[i + 1].is_insert) {
      at = i;
      break;
    }
  }
  ASSERT_TRUE(records[at].is_insert && records[at + 1].is_insert);
  std::swap(records[at], records[at + 1]);
  auto follower = MakeIndex(2, seed);
  ApplyBlindly(follower.get(), records);
  const std::string verdict = CheckReplicaAgainstOracle(*follower, seed, n);
  EXPECT_NE(verdict.find("vector mismatch"), std::string::npos)
      << "verdict: " << verdict;
}

TEST(ReplCheckerMutation, DoubleAppliedRecordIsRejected) {
  const uint64_t seed = 149;
  const uint64_t n = 80;
  std::vector<WriteAheadLog::Record> records = ShippedRecords(seed, n);
  // Apply one shipped insert twice: the follower's log position runs one
  // past the primary's prefix (and a phantom row appears).
  const size_t victim = 40;
  ASSERT_TRUE(records[victim].is_insert);
  records.insert(records.begin() + victim, records[victim]);
  auto follower = MakeIndex(2, seed);
  ApplyBlindly(follower.get(), records);
  const std::string verdict = CheckReplicaAgainstOracle(*follower, seed, n);
  EXPECT_NE(verdict.find("log position mismatch"), std::string::npos)
      << "verdict: " << verdict;
}

TEST(ReplCheckerMutation, LiveReplicaRefusesAnOutOfOrderStream) {
  // The production follower must catch what the checker catches: its
  // dense-version guard refuses a gap at apply time and poisons the
  // replica instead of serving diverged state. Simulated end-to-end: a
  // primary whose WAL skips... cannot be built honestly (Append enforces
  // density), so this drives the guard directly through a second replica
  // apply path — a dropped frame manifests as version v+2 after v.
  const uint64_t seed = 151;
  TempDir wal_dir;
  auto primary = MakeIndex(3, seed);
  WriteAheadLog wal(wal_dir.path);
  wal.Recover(primary.get());
  ApplyAndLog(primary.get(), &wal, seed, 1, 20);

  LogShipper shipper(primary.get(), &wal, LogShipper::Options{});
  shipper.Start();
  Replica replica("127.0.0.1", shipper.port(), ReplicaOptions(2));
  replica.Start();
  ASSERT_TRUE(replica.WaitForVersion(20, kWaitUs)) << replica.progress().error;
  replica.Stop();

  // Tamper with the follower's notion of where it is (the bug injection:
  // a follower that silently skipped a record would resume one short).
  // The primary resumes the stream at have+1 = 20, and the very first
  // frame re-applies version 20 — the dense guard must refuse it.
  ApplyAndLog(primary.get(), &wal, seed, 21, 30);
  auto* follower_index = replica.index();
  // Roll the follower's index forward by one un-shipped mutation so its
  // apply results diverge from the re-shipped record stream.
  follower_index->ApplyInsert(VectorFromPayload(seed ^ 424242).data());
  replica.Start();
  // The replica reports itself at 21 (20 shipped + 1 rogue apply), so the
  // primary resumes at 22 — but applying record 22 on the tampered index
  // yields mismatched ids: the divergence guard fires and poisons.
  const uint64_t deadline = 21;
  replica.WaitForVersion(deadline + 100, 2u * 1000 * 1000);  // let it trip
  const Replica::Progress progress = replica.progress();
  EXPECT_FALSE(progress.error.empty());
  EXPECT_NE(progress.error.find("diverged"), std::string::npos)
      << "error: " << progress.error;
  replica.Stop();
  shipper.Stop();
}

// ---------------------------------------------------------------------------
// Malformed streams: a fake primary feeding the follower bad bytes
// ---------------------------------------------------------------------------

template <typename T>
void Put(std::vector<unsigned char>* buf, const T& value) {
  const auto* p = reinterpret_cast<const unsigned char*>(&value);
  buf->insert(buf->end(), p, p + sizeof(T));
}

/// The 28-byte handshake reply (replication.h): magic, format,
/// start_version, checkpoint length.
std::vector<unsigned char> Reply(uint64_t start_version, uint64_t ckpt_len,
                                 const char* magic = "LCCSREP1",
                                 uint32_t format = 1) {
  std::vector<unsigned char> reply(magic, magic + 8);
  Put(&reply, format);
  Put(&reply, start_version);
  Put(&reply, ckpt_len);
  return reply;
}

/// A record body: version, kind, id, then (inserts) dim + floats.
std::vector<unsigned char> RecordBody(uint64_t version, uint8_t kind,
                                      int32_t id,
                                      const std::vector<float>* vec = nullptr) {
  std::vector<unsigned char> body;
  Put(&body, version);
  Put(&body, kind);
  Put(&body, id);
  if (vec != nullptr) {
    Put(&body, static_cast<uint32_t>(vec->size()));
    for (const float x : *vec) Put(&body, x);
  }
  return body;
}

/// Prelude (length + FNV-1a of the body) and body, optionally with the
/// checksum flipped.
std::vector<unsigned char> Frame(const std::vector<unsigned char>& body,
                                 bool bad_checksum = false) {
  storage::FnvChecksum fnv;
  fnv.Update(body.data(), body.size());
  const uint32_t len = static_cast<uint32_t>(body.size());
  const uint64_t digest = fnv.Digest() ^ (bad_checksum ? 1 : 0);
  std::vector<unsigned char> frame(sizeof(len) + sizeof(digest) + len);
  std::memcpy(frame.data(), &len, sizeof(len));
  std::memcpy(frame.data() + sizeof(len), &digest, sizeof(digest));
  std::copy(body.begin(), body.end(),
            frame.begin() + sizeof(len) + sizeof(digest));
  return frame;
}

std::vector<unsigned char> Concat(std::vector<unsigned char> a,
                                  const std::vector<unsigned char>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// A primary that answers every follower hello with the same `script`
/// bytes and then closes the connection.
class FakePrimary {
 public:
  explicit FakePrimary(std::vector<unsigned char> script)
      : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket failed");
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("fake primary cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakePrimary() {
    stop_ = true;
    thread_.join();
    ::close(listen_fd_);
  }
  FakePrimary(const FakePrimary&) = delete;
  FakePrimary& operator=(const FakePrimary&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    while (!stop_) {
      struct pollfd pfd = {listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      struct timeval tv = {1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      unsigned char hello[20];
      size_t got = 0;
      while (got < sizeof(hello)) {
        const ssize_t n = ::recv(fd, hello + got, sizeof(hello) - got, 0);
        if (n <= 0) break;
        got += static_cast<size_t>(n);
      }
      if (got == sizeof(hello)) {
        size_t sent = 0;
        while (sent < script_.size()) {
          const ssize_t n = ::send(fd, script_.data() + sent,
                                   script_.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) break;
          sent += static_cast<size_t>(n);
        }
      }
      ::close(fd);
    }
  }

  std::vector<unsigned char> script_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ReplicaMalformedStream, PoisonsOrReconnectsWithoutApplying) {
  // A bootstrap checkpoint at version 5 (ids 0..2), so the wrong-dim
  // insert below reaches a follower that knows its dimension.
  ShardedIndex::CheckpointState state;
  state.state_version = 5;
  state.next_id = 3;
  state.dim = kDim;
  state.ids = {0, 1, 2};
  state.vectors = util::Matrix(3, kDim);
  for (size_t r = 0; r < 3; ++r) {
    const std::vector<float> vec = VectorFromPayload(r);
    std::copy(vec.begin(), vec.end(), state.vectors.Row(r));
  }
  const std::vector<unsigned char> image =
      WriteAheadLog::EncodeCheckpoint(state);
  const std::vector<unsigned char> bootstrap =
      Concat(Reply(6, image.size()), image);
  // A fresh follower resumes at version 1 with its empty state.
  const std::vector<unsigned char> resume = Reply(1, 0);
  std::vector<float> short_vec = VectorFromPayload(9);
  short_vec.pop_back();
  std::vector<unsigned char> prelude_only;
  Put(&prelude_only, uint32_t{40});
  Put(&prelude_only, uint64_t{0});

  // A reply claiming 64 MiB of checkpoint ahead of a 3-row image's prefix:
  // the follower must refuse the length the prefix contradicts before it
  // allocates it, not buffer 64 MiB and wait for bytes that never come.
  const uint64_t claimed_len = uint64_t{64} << 20;
  const std::vector<unsigned char> lying_bootstrap = Concat(
      Reply(6, claimed_len),
      std::vector<unsigned char>(
          image.begin(), image.begin() + WriteAheadLog::kCheckpointPrefixBytes));

  struct Case {
    const char* name;
    std::vector<unsigned char> script;
    bool poisons;              ///< false: the follower reconnects instead
    uint64_t applied_version;  ///< where the follower must stay
    std::string error_names = "";  ///< a poison error must contain this
  };
  const std::vector<Case> cases = {
      {"bad magic", Reply(1, 0, "LCCSREPX"), true, 0},
      {"bad format", Reply(1, 0, "LCCSREP1", 2), true, 0},
      {"start_version 0", Reply(0, 0), true, 0},
      {"ckpt_len above the cap", Reply(1, (uint64_t{1} << 40) + 1), true, 0},
      {"ckpt_len its checkpoint prefix contradicts", lying_bootstrap, true, 0,
       std::to_string(claimed_len)},
      {"frame length below the minimum",
       Concat(resume, Frame(std::vector<unsigned char>(5, 0))), true, 0},
      {"frame length above the maximum",
       Concat(resume, std::vector<unsigned char>{0x01, 0x00, 0x00, 0x01, 0, 0,
                                                 0, 0, 0, 0, 0, 0}),
       true, 0},
      {"checksum mismatch",
       Concat(resume, Frame(RecordBody(1, 1, 0), /*bad_checksum=*/true)),
       true, 0},
      {"heartbeat of the wrong length",
       Concat(resume, Frame(RecordBody(0, 2, -1))), true, 0},
      {"kind 3", Concat(resume, Frame(RecordBody(1, 3, 0))), true, 0},
      {"insert with the wrong dim",
       Concat(bootstrap, Frame(RecordBody(6, 0, 3, &short_vec))), true, 5},
      {"body cut short, then close",
       Concat(Concat(resume, prelude_only), std::vector<unsigned char>(10, 0)),
       false, 0},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FakePrimary primary(c.script);
    Replica replica("127.0.0.1", primary.port(), ReplicaOptions(2));
    replica.Start();
    Replica::Progress progress;
    for (int i = 0; i < 2000; ++i) {
      progress = replica.progress();
      if (!progress.error.empty() || progress.reconnects >= 2) break;
      ::usleep(5000);
    }
    replica.Stop();
    progress = replica.progress();
    if (c.poisons) {
      EXPECT_FALSE(progress.error.empty());
      EXPECT_NE(progress.error.find(c.error_names), std::string::npos)
          << progress.error;
    } else {
      EXPECT_TRUE(progress.error.empty()) << progress.error;
      EXPECT_GE(progress.reconnects, 2u);
    }
    EXPECT_EQ(progress.applied_version, c.applied_version);
    EXPECT_EQ(replica.index()->state_version(), c.applied_version);
  }
}

// ---------------------------------------------------------------------------
// Kill-injection failover harness
// ---------------------------------------------------------------------------

/// Acks flow child -> parent over a pipe exactly as in
/// test_wal_recovery.cc; the first two bytes are the shipper's port.
struct AckedMutation {
  uint64_t version = 0;
  int32_t id = -1;
  uint8_t applied = 0;
  uint8_t is_insert = 0;
};
constexpr size_t kAckWireBytes = 14;

void EncodeAck(const AckedMutation& ack, unsigned char* buf) {
  std::memcpy(buf, &ack.version, 8);
  std::memcpy(buf + 8, &ack.id, 4);
  buf[12] = ack.applied;
  buf[13] = ack.is_insert;
}

AckedMutation DecodeAck(const unsigned char* buf) {
  AckedMutation ack;
  std::memcpy(&ack.version, buf, 8);
  std::memcpy(&ack.id, buf + 8, 4);
  ack.applied = buf[12];
  ack.is_insert = buf[13];
  return ack;
}

uint64_t EnvU64(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? 0 : std::strtoull(value, nullptr, 10);
}

/// The crash victim: a full primary — Server + WAL + LogShipper — that
/// SIGKILLs itself at the configured combined failpoint hit (WAL sites and
/// shipper sites share one counter, so the kill lands mid-append,
/// mid-fsync, mid-checkpoint, or with half a frame on the wire).
int RunChildPrimary() {
  const uint64_t seed = EnvU64("LCCS_REPL_SEED");
  const uint64_t crash_at = EnvU64("LCCS_REPL_CRASH_AT");
  const int ack_fd = static_cast<int>(EnvU64("LCCS_REPL_ACK_FD"));
  const char* dir = std::getenv("LCCS_REPL_DIR");
  if (dir == nullptr) return 2;

  ShardedIndex::Options index_options;
  index_options.num_shards = 3;
  index_options.rebuild_threshold = 64;
  ShardedIndex index(LinearScanFactory(), index_options);
  index.Build(InitialData(kInitialRows, seed));

  std::atomic<uint64_t> failpoint_hits{0};
  const auto failpoint = [&failpoint_hits, crash_at](const char*) {
    if (crash_at > 0 && ++failpoint_hits == crash_at) {
      ::kill(::getpid(), SIGKILL);
      for (;;) ::pause();  // unreachable
    }
  };

  WriteAheadLog::Options wal_options;
  wal_options.fsync_policy = WriteAheadLog::FsyncPolicy::kGroupCommit;
  wal_options.group_commit_max_records = 8;
  wal_options.segment_bytes = 2048;
  wal_options.failpoint = failpoint;
  WriteAheadLog wal(dir, wal_options);
  wal.Recover(&index);

  LogShipper::Options ship_options;
  ship_options.failpoint = failpoint;
  ship_options.heartbeat_us = 2000;
  LogShipper shipper(&index, &wal, ship_options);
  shipper.Start();
  const uint16_t port = shipper.port();
  if (::write(ack_fd, &port, sizeof(port)) != sizeof(port)) return 2;

  Server::Options server_options;
  server_options.max_batch = 4;
  server_options.wal = &wal;
  server_options.checkpoint_every = 40;
  server_options.shipper = &shipper;
  {
    Server server(&index, server_options);
    std::deque<std::future<MutationResponse>> inflight;
    std::deque<bool> inflight_is_insert;
    const auto drain_one = [&] {
      const MutationResponse response = inflight.front().get();
      inflight.pop_front();
      AckedMutation ack;
      ack.version = response.state_version;
      ack.id = response.id;
      ack.applied = response.applied ? 1 : 0;
      ack.is_insert = inflight_is_insert.front() ? 1 : 0;
      inflight_is_insert.pop_front();
      unsigned char buf[kAckWireBytes];
      EncodeAck(ack, buf);
      if (::write(ack_fd, buf, sizeof(buf)) != sizeof(buf)) {
        throw std::runtime_error("ack pipe write failed");
      }
    };
    for (uint64_t i = 1; i <= kChildOps; ++i) {
      const PlannedOp op = PlanOp(seed, i);
      inflight.push_back(op.is_insert ? server.SubmitInsert(op.vec.data())
                                      : server.SubmitRemove(op.target));
      inflight_is_insert.push_back(op.is_insert);
      if (inflight.size() >= 8) drain_one();
    }
    while (!inflight.empty()) drain_one();
  }
  // Clean exit: drain the shipper so the parent's follower holds the whole
  // log (bounded wait; killed children never get here).
  for (int i = 0; i < 5000; ++i) {
    if (shipper.stats().shipped_version >= wal.last_version()) break;
    ::usleep(1000);
  }
  shipper.Stop();
  ::close(ack_fd);
  return 0;
}

struct ChildRun {
  uint16_t port = 0;
  std::vector<AckedMutation> acked;
  int status = 0;
  pid_t pid = -1;
  int ack_read_fd = -1;
};

/// Forks + execs this binary as a primary; returns once the child reported
/// its shipper port. Acks are read later (ReadAcks) so the parent can
/// attach a live Replica while the child still runs.
ChildRun SpawnPrimaryChild(const std::string& wal_dir, uint64_t seed,
                           uint64_t crash_at) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");

  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  env_strings.push_back("LCCS_REPL_CHILD=1");
  env_strings.push_back("LCCS_REPL_DIR=" + wal_dir);
  env_strings.push_back("LCCS_REPL_SEED=" + std::to_string(seed));
  env_strings.push_back("LCCS_REPL_CRASH_AT=" + std::to_string(crash_at));
  env_strings.push_back("LCCS_REPL_ACK_FD=" + std::to_string(fds[1]));
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  char exe_path[] = "/proc/self/exe";
  char* child_argv[] = {exe_path, nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::execve("/proc/self/exe", child_argv, envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);

  ChildRun run;
  run.pid = pid;
  run.ack_read_fd = fds[0];
  // First two bytes: the ephemeral shipper port (or EOF if the child died
  // before it could listen — port stays 0 and the caller skips attaching).
  unsigned char port_buf[2];
  size_t filled = 0;
  while (filled < sizeof(port_buf)) {
    const ssize_t got =
        ::read(fds[0], port_buf + filled, sizeof(port_buf) - filled);
    if (got <= 0) break;
    filled += static_cast<size_t>(got);
  }
  if (filled == sizeof(port_buf)) {
    std::memcpy(&run.port, port_buf, sizeof(run.port));
  }
  return run;
}

/// Drains the ack pipe to EOF (the child is dead or done) and reaps it.
void FinishChild(ChildRun* run) {
  unsigned char buf[kAckWireBytes];
  size_t filled = 0;
  for (;;) {
    const ssize_t got =
        ::read(run->ack_read_fd, buf + filled, sizeof(buf) - filled);
    if (got <= 0) break;
    filled += static_cast<size_t>(got);
    if (filled == sizeof(buf)) {
      run->acked.push_back(DecodeAck(buf));
      filled = 0;
    }
  }
  ::close(run->ack_read_fd);
  run->ack_read_fd = -1;
  ::waitpid(run->pid, &run->status, 0);
}

TEST(ReplicationCrashInjection, FailoverPreservesAckedAndShippedRecords) {
  const uint64_t env_crashes = EnvU64("LCCS_REPL_CRASHES");
  const uint64_t iterations = env_crashes == 0 ? 10 : env_crashes;
  const uint64_t base_seed = 2000 + EnvU64("LCCS_REPL_BASE_SEED");

  uint64_t killed = 0;
  uint64_t promoted = 0;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = base_seed + iter;
    // WAL sites fire 2-5x per mutation and shipper sites 2x per shipped
    // record; this range kills children anywhere from the first shipped
    // frame to past a clean run.
    const uint64_t crash_at = 40 + MixOp(seed, 999) % 2200;

    TempDir primary_dir;
    ChildRun child = SpawnPrimaryChild(primary_dir.path, seed, crash_at);
    if (child.port == 0) {
      // Died before listening; nothing was shipped, nothing to check.
      FinishChild(&child);
      ++killed;
      continue;
    }

    Replica replica("127.0.0.1", child.port, ReplicaOptions(2));
    replica.Start();
    FinishChild(&child);  // blocks until the child exits or is SIGKILLed

    const bool was_killed =
        WIFSIGNALED(child.status) && WTERMSIG(child.status) == SIGKILL;
    const bool exited_clean =
        WIFEXITED(child.status) && WEXITSTATUS(child.status) == 0;
    ASSERT_TRUE(was_killed || exited_clean)
        << "seed " << seed << " unexpected child status " << child.status;
    killed += was_killed ? 1 : 0;

    // Let the follower drain everything the dead primary left in the
    // socket before sealing its state (connected flips false only after
    // the stream loop has applied every fully-received frame).
    for (int i = 0; i < 20000 && replica.progress().connected; ++i) {
      ::usleep(1000);
    }
    replica.Stop();
    const Replica::Progress progress = replica.progress();
    ASSERT_TRUE(progress.error.empty())
        << "seed " << seed << ": follower poisoned: " << progress.error;
    if (progress.bootstraps == 0) {
      // The primary died before the handshake completed; the follower has
      // no state and nothing was shipped to it — nothing to fail over.
      continue;
    }
    const uint64_t shipped = progress.applied_version;

    // Promote and check the failover contract: the promoted state is
    // bit-identical to the oracle replay of the primary's log prefix
    // 1..shipped — so every record that was acked *and* shipped survives,
    // and nothing beyond the stream resurrects.
    TempDir promoted_dir;
    std::unique_ptr<WriteAheadLog> promoted_wal =
        replica.Promote(promoted_dir.path, WriteAheadLog::Options{});
    ++promoted;
    ASSERT_EQ(CheckReplicaAgainstOracle(*replica.index(), seed, shipped), "")
        << "seed " << seed << " shipped " << shipped;

    // A clean-exit child drained its shipper, so the follower holds every
    // acked record; after a kill, acked-but-unshipped records may be lost
    // to the follower — but they are still on the dead primary's disk
    // (acked implies durable), never silently gone from both.
    uint64_t max_acked = 0;
    for (const AckedMutation& ack : child.acked) {
      max_acked = std::max(max_acked, ack.version);
    }
    if (exited_clean) {
      ASSERT_EQ(child.acked.size(), kChildOps) << "seed " << seed;
      ASSERT_GE(shipped, max_acked) << "seed " << seed;
    } else {
      auto exhumed = MakeIndex(4, seed);
      WriteAheadLog exhumed_wal(primary_dir.path);
      const WriteAheadLog::RecoveryResult result =
          exhumed_wal.Recover(exhumed.get());
      ASSERT_GE(result.final_version, max_acked)
          << "seed " << seed << ": acked record on neither node";
      ASSERT_GE(result.final_version, shipped)
          << "seed " << seed << ": follower holds a phantom record";
    }

    // The promoted primary keeps acking durably.
    ApplyAndLog(replica.index(), promoted_wal.get(), seed, shipped + 1,
                shipped + 1);
    EXPECT_EQ(replica.index()->state_version(), shipped + 1);
  }
  // The sweep must actually kill primaries mid-flight (and promote at
  // least one follower that had real state).
  EXPECT_GT(killed, 0u) << "no child was ever killed";
  EXPECT_GT(promoted, 0u) << "no follower was ever promoted";
}

}  // namespace
}  // namespace serve
}  // namespace lccs

int main(int argc, char** argv) {
  if (std::getenv("LCCS_REPL_CHILD") != nullptr) {
    try {
      return lccs::serve::RunChildPrimary();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replication child failed: %s\n", e.what());
      return 3;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
