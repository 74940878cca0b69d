// Crash recovery for the durable serving stack (serve::WriteAheadLog +
// checkpoints + serve::Server group commit), proven two ways:
//
//   * deterministic unit suites: WAL round trips, segment rotation,
//     checkpoint truncation, a parametrized torn-tail sweep that cuts a
//     valid log at *every* byte offset of its final record, mid-stream
//     corruption, a mislabeled segment, checkpoint fallback, the
//     Append/Recover contract, each fsync policy's fsync count under a real
//     serve::Server, a failed periodic checkpoint counted in its stats, and
//     the streaming tailer's in-flight vs settled rule;
//
//   * a kill-injection harness: a child process (fork + exec of this very
//     binary, so no threads survive into it) serves a seeded mutation
//     workload under a real serve::Server and is SIGKILLed at a
//     seed-derived failpoint hit — mid-append, mid-fsync, mid-checkpoint,
//     anywhere. The child reports every ack it observed through a pipe;
//     the parent recovers the WAL directory into a *differently sharded*
//     index and verifies the recovered state is bit-identical to a
//     sequential oracle replay of mutations 1..final_version, with
//     final_version >= every acked version (acked implies durable) and
//     <= the planned total (no phantoms beyond the log).
//
// The workload is a pure function of the seed (op kinds, insert payloads,
// remove targets), so parent and child never need to share anything but
// the seed and the WAL directory — exactly the black-box stance of the
// snapshot-isolation checker in test_wal_recovery's sibling, test_serve.cc.
//
// This binary has a custom main(): when LCCS_WAL_CHILD is set in the
// environment it runs the child workload instead of gtest (it is its own
// exec target), so it links gtest without gtest_main.

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "dataset/synthetic.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "util/metric.h"
#include "util/random.h"

extern char** environ;

namespace lccs {
namespace serve {
namespace {

constexpr size_t kDim = 8;
constexpr size_t kInitialRows = 24;
/// Mutations the crash child plans (it rarely lives to apply them all).
constexpr size_t kChildOps = 300;

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

/// splitmix64-style mix — the workload must be a pure function of
/// (seed, op index) so parent and child derive it independently.
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

/// Op `i` (1-based — it becomes mutation version i when every op lands) of
/// the seeded workload: 70% inserts; removes aim anywhere in the id range
/// that *could* exist by now, so live, dead and never-assigned targets all
/// occur (refused removes consume log positions too).
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
  struct LogEntry {
    bool is_insert = false;
    int32_t id = -1;
    bool applied = false;
  };
  std::vector<LogEntry> log;  ///< entry v-1 describes mutation version v
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
    OracleReplay::LogEntry entry;
    entry.is_insert = op.is_insert;
    if (op.is_insert) {
      entry.id = oracle.next_id;
      entry.applied = true;
      oracle.live.emplace(oracle.next_id, std::move(op.vec));
      ++oracle.next_id;
    } else {
      entry.id = op.target;
      entry.applied = oracle.live.erase(op.target) > 0;
    }
    oracle.log.push_back(entry);
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

/// Recovered state must match the oracle bit for bit: same surviving ids,
/// same vector bytes, same log position — and exact queries must agree.
void ExpectMatchesOracle(const ShardedIndex& index, const OracleReplay& oracle,
                         uint64_t final_version, uint64_t seed) {
  ASSERT_EQ(index.state_version(), final_version) << "seed " << seed;
  std::vector<int32_t> ids;
  const util::Matrix vectors = index.LiveVectors(&ids);
  ASSERT_EQ(ids.size(), oracle.live.size()) << "seed " << seed;
  size_t row = 0;
  for (const auto& [id, vec] : oracle.live) {
    ASSERT_EQ(ids[row], id) << "seed " << seed << " row " << row;
    ASSERT_EQ(0,
              std::memcmp(vectors.Row(row), vec.data(), kDim * sizeof(float)))
        << "seed " << seed << " id " << id;
    ++row;
  }
  for (uint64_t q = 0; q < 2; ++q) {
    const std::vector<float> query = VectorFromPayload(seed ^ (7777 + q));
    const std::vector<util::Neighbor> got = index.Query(query.data(), 5);
    const std::vector<util::Neighbor> want =
        OracleTopK(oracle.live, query.data(), 5);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "seed " << seed << " rank " << i;
      EXPECT_EQ(got[i].dist, want[i].dist) << "seed " << seed << " rank " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Filesystem scratch helpers
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
    char buf[] = "/tmp/lccs_wal_XXXXXX";
    if (::mkdtemp(buf) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = buf;
  }
  ~TempDir() { RemoveTree(path); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    throw std::runtime_error("short write " + path);
  }
  std::fclose(f);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ---------------------------------------------------------------------------
// Unit-suite plumbing: apply planned ops through an index + WAL directly
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Child workload (runs in the exec'd copy of this binary)
// ---------------------------------------------------------------------------

/// Acks flow child -> parent as fixed-size binary records over a pipe;
/// each write is one atomic <= PIPE_BUF chunk, so a SIGKILL can only lose
/// whole trailing acks (which merely shrinks the set the parent checks).
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

/// The crash victim: serves the seeded workload through a real Server
/// (writer thread, group commit, periodic checkpoints) until the WAL
/// failpoint hook SIGKILLs the process at the configured hit count.
int RunChildWorkload() {
  const uint64_t seed = EnvU64("LCCS_WAL_SEED");
  const uint64_t crash_at = EnvU64("LCCS_WAL_CRASH_AT");
  const size_t checkpoint_every =
      static_cast<size_t>(EnvU64("LCCS_WAL_CKPT_EVERY"));
  const int ack_fd = static_cast<int>(EnvU64("LCCS_WAL_ACK_FD"));
  const char* dir = std::getenv("LCCS_WAL_DIR");
  const char* policy = std::getenv("LCCS_WAL_POLICY");
  if (dir == nullptr || policy == nullptr) return 2;

  ShardedIndex::Options index_options;
  index_options.num_shards = 3;
  index_options.rebuild_threshold = 64;  // consolidations race the crash too
  ShardedIndex index(LinearScanFactory(), index_options);
  index.Build(InitialData(kInitialRows, seed));

  uint64_t failpoint_hits = 0;
  WriteAheadLog::Options wal_options;
  wal_options.fsync_policy = std::strcmp(policy, "every") == 0
                                 ? WriteAheadLog::FsyncPolicy::kEveryRecord
                                 : WriteAheadLog::FsyncPolicy::kGroupCommit;
  wal_options.group_commit_max_records = 8;
  wal_options.segment_bytes = 2048;  // rotations under fire
  wal_options.failpoint = [&failpoint_hits, crash_at](const char*) {
    if (crash_at > 0 && ++failpoint_hits == crash_at) {
      ::kill(::getpid(), SIGKILL);
      for (;;) ::pause();  // unreachable
    }
  };
  WriteAheadLog wal(dir, wal_options);
  wal.Recover(&index);

  Server::Options server_options;
  server_options.max_batch = 4;
  server_options.wal = &wal;
  server_options.checkpoint_every = checkpoint_every;
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
  ::close(ack_fd);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side of the kill harness
// ---------------------------------------------------------------------------

struct ChildRun {
  std::vector<AckedMutation> acked;
  int status = 0;  ///< raw waitpid status
};

ChildRun SpawnCrashChild(const std::string& wal_dir, uint64_t seed,
                         const char* policy, size_t checkpoint_every,
                         uint64_t crash_at) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");

  // Everything the child needs is marshalled *before* fork: between fork
  // and exec only async-signal-safe calls are legal in a multithreaded
  // parent (gtest may have started pool threads), so the child does
  // nothing but close + execve.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  env_strings.push_back("LCCS_WAL_CHILD=1");
  env_strings.push_back("LCCS_WAL_DIR=" + wal_dir);
  env_strings.push_back("LCCS_WAL_SEED=" + std::to_string(seed));
  env_strings.push_back("LCCS_WAL_POLICY=" + std::string(policy));
  env_strings.push_back("LCCS_WAL_CKPT_EVERY=" +
                        std::to_string(checkpoint_every));
  env_strings.push_back("LCCS_WAL_CRASH_AT=" + std::to_string(crash_at));
  env_strings.push_back("LCCS_WAL_ACK_FD=" + std::to_string(fds[1]));
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
  unsigned char buf[kAckWireBytes];
  size_t filled = 0;
  for (;;) {
    const ssize_t got = ::read(fds[0], buf + filled, sizeof(buf) - filled);
    if (got <= 0) break;
    filled += static_cast<size_t>(got);
    if (filled == sizeof(buf)) {
      run.acked.push_back(DecodeAck(buf));
      filled = 0;
    }
  }
  ::close(fds[0]);
  ::waitpid(pid, &run.status, 0);
  return run;
}

// ---------------------------------------------------------------------------
// Unit suites
// ---------------------------------------------------------------------------

TEST(WalRecovery, RoundTripReplaysAllRecords) {
  const uint64_t seed = 11;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog wal(dir.path);
    const WriteAheadLog::RecoveryResult fresh = wal.Recover(index.get());
    EXPECT_EQ(fresh.final_version, 0u);
    EXPECT_EQ(fresh.replayed, 0u);
    ApplyAndLog(index.get(), &wal, seed, 1, 120);
  }

  // Recover into a *differently sharded* index: checkpoint/replay state is
  // logical, and query results are placement-independent.
  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  EXPECT_EQ(result.checkpoint_version, 0u);
  EXPECT_EQ(result.replayed, 120u);
  EXPECT_EQ(result.final_version, 120u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(wal.stats().recovery_replayed, 120u);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 120), 120, seed);

  // The log resumes at the next dense version.
  ApplyAndLog(recovered.get(), &wal, seed, 121, 125);
  EXPECT_EQ(recovered->state_version(), 125u);
}

TEST(WalRecovery, SegmentRotationAndCheckpointTruncation) {
  const uint64_t seed = 23;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog::Options options;
    options.segment_bytes = 512;  // many small segments
    WriteAheadLog wal(dir.path, options);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 80);
    const size_t segments_before =
        WriteAheadLog::ListSegments(dir.path).size();
    EXPECT_GT(segments_before, 3u);

    wal.WriteCheckpoint(index->CaptureCheckpointState());
    ASSERT_EQ(WriteAheadLog::ListCheckpoints(dir.path).size(), 1u);
    EXPECT_EQ(WriteAheadLog::ListCheckpoints(dir.path)[0].version, 80u);
    // Every whole segment at or below the checkpoint is reclaimed.
    EXPECT_LT(WriteAheadLog::ListSegments(dir.path).size(), segments_before);
    EXPECT_GT(wal.stats().segments_deleted, 0u);

    ApplyAndLog(index.get(), &wal, seed, 81, 120);
  }

  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  EXPECT_EQ(result.checkpoint_version, 80u);
  EXPECT_EQ(result.replayed, 40u);
  EXPECT_EQ(result.final_version, 120u);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 120), 120, seed);
}

TEST(WalRecovery, TornTailTruncatesAtEveryByteOffset) {
  const uint64_t seed = 37;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 12);
  }
  const std::vector<WriteAheadLog::SegmentInfo> segments =
      WriteAheadLog::ListSegments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint64_t> offsets;
  const WriteAheadLog::ScanResult scan = WriteAheadLog::ScanSegment(
      segments[0].path, [&](const WriteAheadLog::Record&, uint64_t offset) {
        offsets.push_back(offset);
      });
  ASSERT_TRUE(scan.clean);
  ASSERT_EQ(scan.records, 12u);
  const uint64_t last_start = offsets.back();
  const uint64_t file_size = scan.valid_bytes;
  const std::vector<unsigned char> bytes = ReadFileBytes(segments[0].path);
  ASSERT_EQ(bytes.size(), file_size);

  const OracleReplay oracle_full = ReplayOracle(seed, 12);
  const OracleReplay oracle_torn = ReplayOracle(seed, 11);
  // Cut the log at every byte of the final record (and, as the boundary
  // case, not at all): recovery must never throw, never replay a partial
  // record, and always land on exactly the full-record prefix.
  for (uint64_t cut = last_start; cut <= file_size; ++cut) {
    TempDir trial;
    WriteFileBytes(
        trial.path + "/" + BaseName(segments[0].path),
        std::vector<unsigned char>(bytes.begin(), bytes.begin() + cut));
    auto recovered = MakeIndex(2, seed);
    WriteAheadLog wal(trial.path);
    WriteAheadLog::RecoveryResult result;
    ASSERT_NO_THROW(result = wal.Recover(recovered.get())) << "cut=" << cut;
    const bool whole = cut == file_size;
    ASSERT_EQ(result.final_version, whole ? 12u : 11u) << "cut=" << cut;
    ASSERT_EQ(result.truncated_bytes, whole ? 0u : cut - last_start)
        << "cut=" << cut;
    // The torn suffix is physically gone: a rescan reports a clean log.
    const WriteAheadLog::ScanResult rescan = WriteAheadLog::ScanSegment(
        trial.path + "/" + BaseName(segments[0].path), nullptr);
    ASSERT_TRUE(rescan.clean) << "cut=" << cut;
    ASSERT_EQ(rescan.records, whole ? 12u : 11u) << "cut=" << cut;
    ExpectMatchesOracle(*recovered, whole ? oracle_full : oracle_torn,
                        whole ? 12 : 11, seed);
  }
}

TEST(WalRecovery, CorruptMidStreamStopsReplayAndDropsOrphans) {
  const uint64_t seed = 41;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog::Options options;
    options.segment_bytes = 512;
    WriteAheadLog wal(dir.path, options);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 40);
  }
  const std::vector<WriteAheadLog::SegmentInfo> segments =
      WriteAheadLog::ListSegments(dir.path);
  ASSERT_GT(segments.size(), 1u);

  // Flip one byte inside the *third* record of the first segment.
  std::vector<uint64_t> offsets;
  WriteAheadLog::ScanSegment(
      segments[0].path, [&](const WriteAheadLog::Record&, uint64_t offset) {
        offsets.push_back(offset);
      });
  ASSERT_GT(offsets.size(), 3u);
  std::vector<unsigned char> bytes = ReadFileBytes(segments[0].path);
  bytes[offsets[2] + 14] ^= 0xFF;  // inside the record body
  WriteFileBytes(segments[0].path, bytes);

  const size_t segments_before = segments.size();
  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  // Replay stops before the damaged record; later segments are stranded
  // past the hole and quarantined as `.orphan` files — renamed, counted,
  // and never deleted (durable bytes must survive the fallback path for
  // post-mortem salvage).
  EXPECT_EQ(result.final_version, 2u);
  EXPECT_EQ(result.replayed, 2u);
  EXPECT_GT(result.truncated_bytes, 0u);
  EXPECT_EQ(WriteAheadLog::ListSegments(dir.path).size(), 1u);
  EXPECT_EQ(result.orphaned_segments, segments_before - 1);
  EXPECT_GT(result.orphaned_bytes, 0u);
  const std::vector<std::string> orphans = WriteAheadLog::ListOrphans(dir.path);
  EXPECT_EQ(orphans.size(), segments_before - 1);
  for (const std::string& orphan : orphans) {
    struct stat st;
    EXPECT_EQ(::stat(orphan.c_str(), &st), 0) << orphan;
    EXPECT_GT(st.st_size, 0) << orphan;
  }
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 2), 2, seed);

  // A second recovery over the quarantined directory is clean: orphans are
  // out of the segment namespace and stay where they are.
  auto again = MakeIndex(3, seed);
  WriteAheadLog wal2(dir.path);
  const WriteAheadLog::RecoveryResult second = wal2.Recover(again.get());
  EXPECT_EQ(second.final_version, 2u);
  EXPECT_EQ(second.orphaned_segments, 0u);
  EXPECT_EQ(WriteAheadLog::ListOrphans(dir.path).size(), orphans.size());
}

// A segment whose file name disagrees with its header's first version is a
// damaged header: recovery quarantines it instead of replaying records
// 5.. on top of version 0, and the streaming tailer rejects it too.
TEST(WalRecovery, MislabeledSegmentIsQuarantined) {
  const uint64_t seed = 59;
  TempDir dir;
  {
    auto index = MakeIndex(2, seed);
    for (uint64_t i = 1; i <= 4; ++i) {  // versions 1..4 are never logged
      const PlannedOp op = PlanOp(seed, i);
      if (op.is_insert) {
        index->ApplyInsert(op.vec.data());
      } else {
        index->ApplyRemove(op.target);
      }
    }
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 5, 12);
  }
  const std::vector<WriteAheadLog::SegmentInfo> segments =
      WriteAheadLog::ListSegments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_EQ(segments[0].first_version, 5u);
  const std::string mislabeled = dir.path + "/wal_00000000000000000001.log";
  ASSERT_EQ(std::rename(segments[0].path.c_str(), mislabeled.c_str()), 0);

  const WriteAheadLog::ScanResult scan =
      WriteAheadLog::ScanSegment(mislabeled, nullptr);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.records, 0u);
  WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(dir.path, 1);
  EXPECT_THROW(tailer.Poll(nullptr, 100), std::runtime_error);

  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  WriteAheadLog::RecoveryResult result;
  ASSERT_NO_THROW(result = wal.Recover(recovered.get()));
  EXPECT_EQ(result.final_version, 0u);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_EQ(result.orphaned_segments, 1u);
  EXPECT_TRUE(WriteAheadLog::ListSegments(dir.path).empty());
  EXPECT_EQ(WriteAheadLog::ListOrphans(dir.path),
            std::vector<std::string>{mislabeled + ".orphan"});
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 0), 0, seed);
}

TEST(WalRecovery, ReadErrorIsNotMistakenForATornTail) {
  // A short fread caused by a real I/O error (not end-of-file) must abort
  // recovery, not silently truncate the log at the failed offset and
  // replay a shortened history as if it were a torn tail. Injected via the
  // read failpoint; old code treated every short read as EOF.
  const uint64_t seed = 43;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 12);
  }
  const std::vector<WriteAheadLog::SegmentInfo> segments =
      WriteAheadLog::ListSegments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  struct stat before;
  ASSERT_EQ(::stat(segments[0].path.c_str(), &before), 0);

  // Fail every read past the 24-byte segment header.
  SetWalReadFailpoint(
      [](const std::string&, uint64_t offset) { return offset > 24; });
  {
    auto recovered = MakeIndex(2, seed);
    WriteAheadLog wal(dir.path);
    EXPECT_THROW(wal.Recover(recovered.get()), std::runtime_error);
  }
  SetWalReadFailpoint(nullptr);

  // The failed recovery must not have "repaired" anything: no truncation,
  // no orphaning — the bytes are intact and a healthy retry replays all.
  struct stat after;
  ASSERT_EQ(::stat(segments[0].path.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, before.st_size);
  EXPECT_TRUE(WriteAheadLog::ListOrphans(dir.path).empty());
  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  EXPECT_EQ(result.final_version, 12u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 12), 12, seed);
}

TEST(WalRecovery, RealReadErrorSurfacesAsThrowNotTornTail) {
  // No injection here: fread from a directory fd fails with EISDIR and
  // sets the stream's error indicator — a genuine I/O error. Old code
  // never consulted std::ferror, classified the short read as a torn /
  // empty tail and reported a clean-looking truncation; it must throw.
  TempDir dir;
  EXPECT_THROW(WriteAheadLog::ScanSegment(
                   dir.path, [](const WriteAheadLog::Record&, uint64_t) {}),
               std::runtime_error);
}

TEST(WalRecovery, OverlongNumberedNamesAreRejectedNotWrapped) {
  // ParseNumberedName used to accumulate digits into a uint64_t without
  // overflow checks, so a stray `wal_<21+ digits>.log` silently wrapped to
  // an arbitrary small version and was adopted into the segment order —
  // recovery could then replay garbage or delete real segments as
  // duplicates. Overlong or overflowing digit runs must be ignored.
  const uint64_t seed = 47;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  {
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 8);
    wal.WriteCheckpoint(index->CaptureCheckpointState());
  }
  ASSERT_EQ(WriteAheadLog::ListSegments(dir.path).size(), 1u);
  ASSERT_EQ(WriteAheadLog::ListCheckpoints(dir.path).size(), 1u);

  // 21 nines wraps to 0x... something small; 2^64 is exactly 20 digits and
  // overflows by one; both must stay invisible to the directory scans.
  const std::string wrap21(21, '9');
  WriteFileBytes(dir.path + "/wal_" + wrap21 + ".log", {0x00});
  WriteFileBytes(dir.path + "/wal_18446744073709551616.log", {0x00});
  WriteFileBytes(dir.path + "/checkpoint_" + wrap21 + ".ckpt", {0x00});
  WriteFileBytes(dir.path + "/checkpoint_18446744073709551616.ckpt", {0x00});
  EXPECT_EQ(WriteAheadLog::ListSegments(dir.path).size(), 1u);
  EXPECT_EQ(WriteAheadLog::ListCheckpoints(dir.path).size(), 1u);
  // The largest in-range value still parses (boundary stays accepted).
  WriteFileBytes(dir.path + "/wal_18446744073709551615.log", {0x00});
  EXPECT_EQ(WriteAheadLog::ListSegments(dir.path).size(), 2u);
  std::remove((dir.path + "/wal_18446744073709551615.log").c_str());

  // And recovery over the littered directory is unaffected.
  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  EXPECT_EQ(result.final_version, 8u);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 8), 8, seed);
}

TEST(WalRecovery, CorruptNewestCheckpointFallsBackToOlder) {
  const uint64_t seed = 53;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  std::vector<unsigned char> old_checkpoint;
  std::string old_checkpoint_name;
  {
    WriteAheadLog wal(dir.path);  // default segment size: one segment
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 30);
    wal.WriteCheckpoint(index->CaptureCheckpointState());
    const auto checkpoints = WriteAheadLog::ListCheckpoints(dir.path);
    ASSERT_EQ(checkpoints.size(), 1u);
    old_checkpoint = ReadFileBytes(checkpoints[0].path);
    old_checkpoint_name = BaseName(checkpoints[0].path);
    ApplyAndLog(index.get(), &wal, seed, 31, 50);
    wal.WriteCheckpoint(index->CaptureCheckpointState());  // deletes ckpt 30
  }
  // Resurrect the old checkpoint, then damage the newest one.
  WriteFileBytes(dir.path + "/" + old_checkpoint_name, old_checkpoint);
  const auto checkpoints = WriteAheadLog::ListCheckpoints(dir.path);
  ASSERT_EQ(checkpoints.size(), 2u);
  std::vector<unsigned char> newest = ReadFileBytes(checkpoints[1].path);
  newest[newest.size() / 2] ^= 0xFF;
  WriteFileBytes(checkpoints[1].path, newest);

  auto recovered = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);
  const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());
  EXPECT_EQ(result.checkpoint_version, 30u);
  EXPECT_EQ(result.replayed, 20u);  // 31..50 out of the surviving segment
  EXPECT_EQ(result.final_version, 50u);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, 50), 50, seed);
}

TEST(WalRecovery, AppendAndRecoverContracts) {
  const uint64_t seed = 67;
  TempDir dir;
  auto index = MakeIndex(2, seed);
  WriteAheadLog wal(dir.path);

  WriteAheadLog::Record record;
  record.version = 1;
  record.is_insert = false;
  record.id = 0;
  EXPECT_THROW(wal.Append(record), std::runtime_error);  // before Recover

  wal.Recover(index.get());
  ApplyAndLog(index.get(), &wal, seed, 1, 3);

  WriteAheadLog::Record gap;
  gap.version = 10;  // next dense version is 4
  gap.is_insert = false;
  gap.id = 0;
  EXPECT_THROW(wal.Append(gap), std::runtime_error);
  EXPECT_THROW(wal.Recover(index.get()), std::runtime_error);  // ran twice
}

// A record can pass its checksum and still carry an insert of the wrong
// dimension (Append and the decoder accept any): replay must refuse it
// instead of reading past the end of the vector.
TEST(WalRecovery, ReplayRefusesAnInsertOfTheWrongDimension) {
  const uint64_t seed = 69;
  TempDir dir;
  {
    auto index = MakeIndex(2, seed);
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 3);
    WriteAheadLog::Record record;
    record.version = 4;
    record.is_insert = true;
    record.id = index->ApplyInsert(VectorFromPayload(seed).data()).id;
    record.vec = VectorFromPayload(seed);
    record.vec.pop_back();  // kDim - 1 floats
    wal.Append(record);
    wal.Sync();
  }
  auto recovered = MakeIndex(3, seed);
  WriteAheadLog wal(dir.path);
  EXPECT_THROW(wal.Recover(recovered.get()), std::runtime_error);
  EXPECT_EQ(recovered->state_version(), 3u);  // records 1..3 replayed
}

TEST(WalRecovery, CheckpointRestoreIsPlacementIndependent) {
  const uint64_t seed = 71;
  auto source = MakeIndex(3, seed);
  for (uint64_t i = 1; i <= 60; ++i) {
    const PlannedOp op = PlanOp(seed, i);
    if (op.is_insert) {
      source->ApplyInsert(op.vec.data());
    } else {
      source->ApplyRemove(op.target);
    }
  }
  const ShardedIndex::CheckpointState state = source->CaptureCheckpointState();

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    ShardedIndex::Options options;
    options.num_shards = shards;
    ShardedIndex restored(LinearScanFactory(), options);
    restored.RestoreCheckpointState(state);
    ExpectMatchesOracle(restored, ReplayOracle(seed, 60), 60, seed);

    // The restored index keeps sequencing where the cut left off...
    const std::vector<float> vec = VectorFromPayload(seed + 999);
    const ShardedIndex::MutationResult inserted =
        restored.ApplyInsert(vec.data());
    EXPECT_EQ(inserted.id, state.next_id);
    EXPECT_EQ(inserted.state_version, state.state_version + 1);
    // ...and dead ids stay dead (no shard holds them).
    for (int32_t id = 0; id < state.next_id; ++id) {
      const bool live =
          std::binary_search(state.ids.begin(), state.ids.end(), id);
      EXPECT_EQ(restored.Contains(id), live) << "id " << id;
    }
  }
}

// Each fsync policy's cost shows in the log's own counters once a Server
// has acked every mutation: every_record fsyncs at least once per record,
// group commit covers runs of records with fewer fsyncs and still recovers
// every acked one.
TEST(WalRecovery, ServerAcksPayTheirPolicysFsyncs) {
  constexpr uint64_t kMutations = 64;
  const uint64_t seed = 73;
  for (const WriteAheadLog::FsyncPolicy policy :
       {WriteAheadLog::FsyncPolicy::kEveryRecord,
        WriteAheadLog::FsyncPolicy::kGroupCommit}) {
    const bool every_record =
        policy == WriteAheadLog::FsyncPolicy::kEveryRecord;
    SCOPED_TRACE(every_record ? "every_record" : "group_commit");
    TempDir dir;
    auto index = MakeIndex(3, seed);
    WriteAheadLog::Options wal_options;
    wal_options.fsync_policy = policy;
    WriteAheadLog wal(dir.path, wal_options);
    wal.Recover(index.get());
    {
      Server::Options server_options;
      server_options.wal = &wal;
      Server server(index.get(), server_options);
      std::vector<std::future<MutationResponse>> acks;
      for (uint64_t i = 1; i <= kMutations; ++i) {
        const PlannedOp op = PlanOp(seed, i);
        acks.push_back(op.is_insert ? server.SubmitInsert(op.vec.data())
                                    : server.SubmitRemove(op.target));
      }
      for (auto& ack : acks) {
        ASSERT_EQ(ack.wait_for(std::chrono::seconds(20)),
                  std::future_status::ready);
        ack.get();
      }
      // Read while the server runs: its shutdown flush must not be what
      // makes the counts.
      const WriteAheadLog::Stats stats = wal.stats();
      EXPECT_EQ(stats.records_appended, kMutations);
      if (every_record) {
        EXPECT_GE(stats.fsyncs, kMutations);
      } else {
        EXPECT_GE(stats.fsyncs, 1u);
        EXPECT_LE(stats.fsyncs, kMutations);
      }
    }
    if (every_record) continue;
    auto recovered = MakeIndex(2, seed);
    WriteAheadLog fresh(dir.path);
    const WriteAheadLog::RecoveryResult result =
        fresh.Recover(recovered.get());
    EXPECT_EQ(result.replayed, kMutations);
    EXPECT_EQ(result.final_version, kMutations);
    ExpectMatchesOracle(*recovered, ReplayOracle(seed, kMutations),
                        kMutations, seed);
  }
}

// A periodic checkpoint that throws is counted, not dropped in silence: the
// writer keeps acking, the later checkpoints land, and the log still
// recovers every mutation.
TEST(WalRecovery, FailedPeriodicCheckpointIsCounted) {
  constexpr uint64_t kMutations = 64;
  const uint64_t seed = 79;
  TempDir dir;
  auto index = MakeIndex(3, seed);
  std::atomic<int> checkpoint_begins{0};
  WriteAheadLog::Options wal_options;
  wal_options.failpoint = [&checkpoint_begins](const char* site) {
    if (std::strcmp(site, "wal:checkpoint:begin") == 0 &&
        checkpoint_begins.fetch_add(1) == 0) {
      throw std::runtime_error("injected checkpoint failure");
    }
  };
  WriteAheadLog wal(dir.path, wal_options);
  wal.Recover(index.get());
  {
    Server::Options server_options;
    server_options.wal = &wal;
    server_options.checkpoint_every = 16;
    Server server(index.get(), server_options);
    std::vector<std::future<MutationResponse>> acks;
    for (uint64_t i = 1; i <= kMutations; ++i) {
      const PlannedOp op = PlanOp(seed, i);
      acks.push_back(op.is_insert ? server.SubmitInsert(op.vec.data())
                                  : server.SubmitRemove(op.target));
    }
    for (auto& ack : acks) {
      ASSERT_EQ(ack.wait_for(std::chrono::seconds(20)),
                std::future_status::ready);
      ack.get();
    }
    // The last checkpoint runs after the last ack; Stop joins the writer.
    server.Stop();
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.checkpoint_failures, 1u);
    EXPECT_EQ(stats.checkpoints, 3u);
  }
  auto recovered = MakeIndex(2, seed);
  WriteAheadLog fresh(dir.path);
  EXPECT_EQ(fresh.Recover(recovered.get()).final_version, kMutations);
  ExpectMatchesOracle(*recovered, ReplayOracle(seed, kMutations), kMutations,
                      seed);
}

// ---------------------------------------------------------------------------
// The streaming tailer's in-flight vs settled rule
// ---------------------------------------------------------------------------

/// One segment of 12 logged mutations: its file name, its bytes and the
/// byte offset of every record frame.
struct LoggedSegment {
  std::string name;
  std::vector<unsigned char> bytes;
  std::vector<uint64_t> offsets;
};

LoggedSegment LogTwelveRecords(uint64_t seed) {
  TempDir dir;
  auto index = MakeIndex(2, seed);
  {
    WriteAheadLog wal(dir.path);
    wal.Recover(index.get());
    ApplyAndLog(index.get(), &wal, seed, 1, 12);
  }
  const auto segments = WriteAheadLog::ListSegments(dir.path);
  if (segments.size() != 1) throw std::runtime_error("expected one segment");
  LoggedSegment out;
  out.name = BaseName(segments[0].path);
  out.bytes = ReadFileBytes(segments[0].path);
  WriteAheadLog::ScanSegment(segments[0].path,
                             [&](const WriteAheadLog::Record&, uint64_t off) {
                               out.offsets.push_back(off);
                             });
  return out;
}

std::vector<unsigned char> Prefix(const std::vector<unsigned char>& bytes,
                                  uint64_t n) {
  return std::vector<unsigned char>(bytes.begin(), bytes.begin() + n);
}

/// Polls once, collecting the delivered versions; every delivered frame
/// must be the segment's own bytes at the record's offset.
size_t PollInto(WriteAheadLog::Tailer* tailer, const LoggedSegment& segment,
                std::vector<uint64_t>* versions) {
  return tailer->Poll(
      [&](const WriteAheadLog::Record& record, const unsigned char* frame,
          size_t frame_bytes) {
        versions->push_back(record.version);
        const uint64_t offset = segment.offsets[record.version - 1];
        EXPECT_EQ(0, std::memcmp(frame, segment.bytes.data() + offset,
                                 frame_bytes))
            << "version " << record.version;
      },
      1000);
}

std::vector<uint64_t> Versions(uint64_t first, uint64_t last) {
  std::vector<uint64_t> out;
  for (uint64_t v = first; v <= last; ++v) out.push_back(v);
  return out;
}

// A cut anywhere inside the newest record at the write head is an append
// in flight: the whole records before it are delivered, then the tailer
// waits (returns 0) instead of throwing. A mangled body that ends exactly
// at the write head is the body write still landing, too.
TEST(WalTailer, CutAtTheWriteHeadIsAnAppendInFlight) {
  const LoggedSegment segment = LogTwelveRecords(79);
  const uint64_t last_start = segment.offsets.back();
  for (uint64_t cut = last_start; cut < segment.bytes.size(); ++cut) {
    TempDir trial;
    WriteFileBytes(trial.path + "/" + segment.name,
                   Prefix(segment.bytes, cut));
    WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(trial.path, 1);
    std::vector<uint64_t> versions;
    size_t delivered = 0;
    ASSERT_NO_THROW(delivered = PollInto(&tailer, segment, &versions))
        << "cut=" << cut;
    ASSERT_EQ(delivered, 11u) << "cut=" << cut;
    ASSERT_EQ(versions, Versions(1, 11)) << "cut=" << cut;
    ASSERT_NO_THROW(delivered = PollInto(&tailer, segment, &versions))
        << "cut=" << cut;
    ASSERT_EQ(delivered, 0u) << "cut=" << cut;
    ASSERT_EQ(tailer.next_version(), 12u) << "cut=" << cut;

    // Once the rest of the record lands, it is delivered from where the
    // cursor waited.
    std::FILE* f = std::fopen((trial.path + "/" + segment.name).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(segment.bytes.data() + cut, 1,
                          segment.bytes.size() - cut, f),
              segment.bytes.size() - cut);
    std::fclose(f);
    ASSERT_EQ(PollInto(&tailer, segment, &versions), 1u) << "cut=" << cut;
    ASSERT_EQ(versions, Versions(1, 12)) << "cut=" << cut;
  }

  TempDir trial;
  std::vector<unsigned char> mangled = segment.bytes;
  mangled.back() ^= 0xFF;
  WriteFileBytes(trial.path + "/" + segment.name, mangled);
  WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(trial.path, 1);
  std::vector<uint64_t> versions;
  EXPECT_EQ(PollInto(&tailer, segment, &versions), 11u);
  EXPECT_EQ(PollInto(&tailer, segment, &versions), 0u);
}

// The same cut is settled corruption once anything lies beyond it: more
// bytes in the segment, or a successor segment.
TEST(WalTailer, CutFollowedByMoreBytesOrASuccessorThrows) {
  const LoggedSegment segment = LogTwelveRecords(83);
  const uint64_t last_start = segment.offsets.back();
  std::vector<unsigned char> successor(segment.bytes.begin(),
                                       segment.bytes.begin() + 24);
  const uint64_t successor_first = 13;
  std::memcpy(successor.data() + 16, &successor_first, sizeof(uint64_t));
  for (uint64_t cut = last_start; cut < segment.bytes.size(); ++cut) {
    for (const bool junk : {true, false}) {
      SCOPED_TRACE(junk ? "64 junk bytes" : "successor segment");
      TempDir trial;
      std::vector<unsigned char> bytes = Prefix(segment.bytes, cut);
      if (junk) {
        bytes.insert(bytes.end(), 64, 0xAB);
      } else {
        WriteFileBytes(trial.path + "/wal_00000000000000000013.log",
                       successor);
      }
      WriteFileBytes(trial.path + "/" + segment.name, bytes);
      WriteAheadLog::Tailer tailer =
          WriteAheadLog::TailSegments(trial.path, 1);
      std::vector<uint64_t> versions;
      EXPECT_THROW(PollInto(&tailer, segment, &versions), std::runtime_error)
          << "cut=" << cut;
      EXPECT_EQ(versions, Versions(1, 11)) << "cut=" << cut;
    }
  }
}

// A whole prelude is written in one write(), so an implausible length is
// never an append in flight: it throws even at the write head.
TEST(WalTailer, ImplausibleLengthThrowsAtOnce) {
  const LoggedSegment segment = LogTwelveRecords(89);
  for (const uint32_t len : {uint32_t{0}, uint32_t{12}, (16u << 20) + 1}) {
    TempDir trial;
    std::vector<unsigned char> bytes = segment.bytes;
    const uint64_t checksum = 0;
    const auto* p = reinterpret_cast<const unsigned char*>(&len);
    bytes.insert(bytes.end(), p, p + sizeof(len));
    p = reinterpret_cast<const unsigned char*>(&checksum);
    bytes.insert(bytes.end(), p, p + sizeof(checksum));
    WriteFileBytes(trial.path + "/" + segment.name, bytes);
    WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(trial.path, 1);
    std::vector<uint64_t> versions;
    EXPECT_THROW(PollInto(&tailer, segment, &versions), std::runtime_error)
        << "len=" << len;
    EXPECT_EQ(versions, Versions(1, 12)) << "len=" << len;
  }
}

// A segment header shorter than 24 bytes is the writer's header write
// still landing — unless a later segment exists, which settles it.
TEST(WalTailer, HeaderStillLandingWaitsUnlessSettled) {
  const LoggedSegment segment = LogTwelveRecords(97);
  const std::vector<unsigned char> partial_header = Prefix(segment.bytes, 10);
  {
    TempDir trial;
    WriteFileBytes(trial.path + "/" + segment.name, partial_header);
    WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(trial.path, 1);
    std::vector<uint64_t> versions;
    EXPECT_EQ(PollInto(&tailer, segment, &versions), 0u);
    EXPECT_EQ(PollInto(&tailer, segment, &versions), 0u);
  }
  {
    // The successor of a full segment is still landing: the tailer
    // delivers the full segment and then waits at the successor.
    TempDir trial;
    WriteFileBytes(trial.path + "/" + segment.name, segment.bytes);
    WriteFileBytes(trial.path + "/wal_00000000000000000013.log",
                   partial_header);
    WriteAheadLog::Tailer tailer = WriteAheadLog::TailSegments(trial.path, 1);
    std::vector<uint64_t> versions;
    EXPECT_EQ(PollInto(&tailer, segment, &versions), 12u);
    EXPECT_EQ(PollInto(&tailer, segment, &versions), 0u);
    EXPECT_EQ(tailer.next_version(), 13u);

    // A later segment settles the short header as damage.
    WriteFileBytes(trial.path + "/wal_00000000000000000020.log",
                   partial_header);
    EXPECT_THROW(PollInto(&tailer, segment, &versions), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// The kill-injection harness
// ---------------------------------------------------------------------------

TEST(WalCrashInjection, AckedMutationsSurviveSigkill) {
  // >= 50 seeded crash points per the acceptance bar; CI can widen or
  // narrow the sweep through the env knob.
  const uint64_t env_crashes = EnvU64("LCCS_WAL_CRASHES");
  const uint64_t iterations = env_crashes == 0 ? 56 : env_crashes;
  const uint64_t base_seed = 1u + EnvU64("LCCS_WAL_BASE_SEED");

  uint64_t killed = 0;
  uint64_t completed = 0;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = base_seed + iter;
    // Crash anywhere from the very first failpoint to past the end of the
    // run (a full workload exercises clean-shutdown recovery too): a run
    // hits roughly 2-5 sites per mutation depending on policy.
    const uint64_t crash_at = 1 + MixOp(seed, 999) % 1200;
    const char* policy = iter % 2 == 0 ? "group" : "every";
    const size_t checkpoint_every =
        iter % 3 == 0 ? 0 : 15 + static_cast<size_t>(seed % 10);

    TempDir dir;
    const ChildRun child =
        SpawnCrashChild(dir.path, seed, policy, checkpoint_every, crash_at);
    const bool was_killed =
        WIFSIGNALED(child.status) && WTERMSIG(child.status) == SIGKILL;
    const bool exited_clean =
        WIFEXITED(child.status) && WEXITSTATUS(child.status) == 0;
    ASSERT_TRUE(was_killed || exited_clean)
        << "seed " << seed << " unexpected child status " << child.status;
    killed += was_killed ? 1 : 0;
    completed += exited_clean ? 1 : 0;

    uint64_t max_acked = 0;
    for (const AckedMutation& ack : child.acked) {
      max_acked = std::max(max_acked, ack.version);
    }
    if (exited_clean) {
      ASSERT_EQ(child.acked.size(), kChildOps) << "seed " << seed;
    }

    // Recover into a differently-sharded index (the child used 3 shards).
    auto recovered = MakeIndex(2, seed);
    WriteAheadLog wal(dir.path);
    const WriteAheadLog::RecoveryResult result = wal.Recover(recovered.get());

    // Acked implies durable; nothing beyond the planned log resurrects.
    ASSERT_GE(result.final_version, max_acked)
        << "seed " << seed << " policy " << policy << " crash_at " << crash_at
        << ": acked mutation lost";
    ASSERT_LE(result.final_version, kChildOps) << "seed " << seed;

    // Bit-identical to the oracle replay of the recovered prefix.
    const OracleReplay oracle = ReplayOracle(seed, result.final_version);
    ExpectMatchesOracle(*recovered, oracle, result.final_version, seed);

    // Every ack the child observed matches the oracle's log entry at that
    // position — ids, kinds and applied verdicts, not just the count.
    for (const AckedMutation& ack : child.acked) {
      ASSERT_GE(ack.version, 1u) << "seed " << seed;
      const OracleReplay::LogEntry& expected = oracle.log[ack.version - 1];
      ASSERT_EQ(ack.is_insert != 0, expected.is_insert) << "seed " << seed;
      ASSERT_EQ(ack.id, expected.id) << "seed " << seed;
      ASSERT_EQ(ack.applied != 0, expected.applied) << "seed " << seed;
    }

    // The recovered deployment can keep serving durably.
    ApplyAndLog(recovered.get(), &wal, seed, result.final_version + 1,
                result.final_version + 1);
    EXPECT_EQ(recovered->state_version(), result.final_version + 1);
  }
  // The sweep must actually crash children (a harness whose failpoints
  // never fire proves nothing); with crash_at <= 1200 and 2+ hits per op
  // the majority die mid-run.
  EXPECT_GT(killed, iterations / 2)
      << "killed " << killed << " completed " << completed;
}

}  // namespace
}  // namespace serve
}  // namespace lccs

int main(int argc, char** argv) {
  if (std::getenv("LCCS_WAL_CHILD") != nullptr) {
    try {
      return lccs::serve::RunChildWorkload();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wal child failed: %s\n", e.what());
      return 3;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
