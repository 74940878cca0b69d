#ifndef LCCS_SERVE_REPLICATION_H_
#define LCCS_SERVE_REPLICATION_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/sharded_index.h"
#include "serve/wal.h"

namespace lccs {
namespace serve {

/// Primary/replica log shipping over the WAL segment stream.
///
/// The WAL's on-disk encoding *is* the wire format. A record frame (its
/// layout is defined once, in serve/wal.h) is already length-prefixed and
/// checksummed, so the primary forwards the raw segment bytes verbatim
/// (WriteAheadLog::Tailer hands them over frame by frame) and a follower
/// checks each frame with the same codec (WriteAheadLog::FramePrelude)
/// that crash recovery uses on a segment. The bootstrap
/// payload reuses the checkpoint-file encoding the same way
/// (WriteAheadLog::EncodeCheckpoint / DecodeCheckpoint).
///
/// Wire protocol (localhost TCP, native endianness like the files):
///
///   follower -> primary   hello, 20 bytes:
///     offset  size  field
///          0     8  magic "LCCSREP1"
///          8     4  protocol format (uint32, currently 1)
///         12     8  have_version (uint64): mutations already applied;
///                   0 = fresh follower
///
///   primary -> follower   reply, 28 bytes + optional checkpoint:
///     offset  size  field
///          0     8  magic "LCCSREP1"
///          8     4  protocol format (uint32)
///         12     8  start_version (uint64): version of the first record
///                   frame that will follow
///         20     8  checkpoint length in bytes (uint64); when nonzero,
///                   that many bytes follow — a checkpoint image whose
///                   state_version is exactly start_version - 1, and
///                   whose own prefix implies exactly this length
///                   (WriteAheadLog::CheckpointImageBytes; the follower
///                   poisons otherwise, before it buffers the rows)
///
///   then an unbounded stream of record frames, byte-identical to the
///   primary's segment bytes.
///
/// A bootstrap checkpoint is sent when the follower is fresh
/// (have_version == 0 — the initial Build state is not in the WAL) or when
/// checkpoint GC has already truncated the segments the follower would
/// need (resume impossible); otherwise the stream resumes at
/// have_version + 1 and the follower keeps its state. Reconnecting is
/// always safe: the follower re-sends its applied version and the primary
/// re-decides.
///
/// One wire-only record kind exists beyond the segment kinds 0 (insert)
/// and 1 (remove): kind 2, a **progress heartbeat**, framed by the same
/// encoder (WriteAheadLog::EncodeFrame) so the follower's frame loop needs
/// no second parser. Body layout (29 bytes):
///
///     version (uint64, always 0), kind (uint8, 2), id (int32, -1),
///     head_version (uint64): primary's last appended version,
///     pending_bytes (uint64): bytes the shipper has not yet shipped
///
/// Heartbeats are sent when the stream goes idle; they never touch the
/// follower's index — they only feed its lag gauges. They never appear in
/// segment files (WriteAheadLog rejects kind > 1).
///
/// Guarantee ("acked and shipped"): the primary acks a mutation once its
/// WAL record is durable locally; the shipper forwards records
/// asynchronously. A record that was both acked *and* shipped (its frame
/// fully received by the follower) survives losing the primary: the
/// follower applied it in dense order, and promotion seals the follower's
/// state into a fresh WAL of its own. Acked-but-not-yet-shipped records
/// survive on the primary's disk but are not on the follower — promotion
/// after losing the primary's disk forfeits exactly that suffix, never a
/// middle record (density makes the surviving prefix exact).
class LogShipper {
 public:
  struct Options {
    /// TCP port to listen on (127.0.0.1); 0 = ephemeral, read port().
    uint16_t port = 0;
    /// Heartbeat cadence while idle (lag gauges on the follower).
    uint64_t heartbeat_us = 20000;
    /// Test-only crash-injection hook, same contract as
    /// WriteAheadLog::Options::failpoint: invoked at named sites
    /// ("repl:ship:mid_frame", "repl:ship:after_frame", ...) so the kill
    /// harness can SIGKILL the primary half-way through a ship.
    std::function<void(const char*)> failpoint;
  };

  struct Stats {
    uint64_t followers_connected = 0;  ///< accepted connections, lifetime
    uint64_t followers_active = 0;     ///< currently streaming
    uint64_t records_shipped = 0;      ///< frames sent, summed over followers
    uint64_t bytes_shipped = 0;        ///< frame bytes, excluding heartbeats
    uint64_t bootstraps_sent = 0;      ///< checkpoint images sent
    /// Highest version any follower has been sent (0 = nothing shipped).
    uint64_t shipped_version = 0;
  };

  /// Both pointers are borrowed and must outlive the shipper. `wal` must
  /// already have Recover()ed (the tailer reads its directory); `index` is
  /// only used to capture bootstrap checkpoints. Call Start() to listen.
  LogShipper(ShardedIndex* index, WriteAheadLog* wal, Options options);
  ~LogShipper();  ///< Stop()s.

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Binds 127.0.0.1:port, starts the accept thread. Throws on bind
  /// failure. Idempotent once listening.
  void Start();

  /// Closes the listener and every follower connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after Start(); with Options::port == 0 this is
  /// the ephemeral port the kernel picked).
  uint16_t port() const;

  Stats stats() const;

 private:
  void AcceptLoop();
  void ServeFollower(int fd);
  /// Sends the hello response (+ checkpoint when bootstrapping) and
  /// returns a tailer positioned at the promised start_version.
  WriteAheadLog::Tailer Handshake(int fd);
  void Failpoint(const char* site) const;

  ShardedIndex* index_;
  WriteAheadLog* wal_;
  Options options_;

  mutable std::mutex mu_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool stopping_ = false;
  std::thread accept_thread_;
  std::vector<std::thread> follower_threads_;
  std::vector<int> follower_fds_;  ///< open sockets, for Stop() to shut down
  Stats stats_;
};

/// Follower half: connects to a LogShipper, bootstraps or resumes, applies
/// every shipped record through WriteAheadLog::ApplyRecord in dense version
/// order, and serves read-only queries off AcquireSnapshot() — the
/// read-replica pattern: analytical load on followers, mutations on the
/// primary.
///
/// The tail thread reconnects forever (with backoff) until Stop() or
/// Promote(); every reconnect re-sends the applied version, so a dropped
/// connection — or a primary restart — resumes without re-applying or
/// skipping anything. A malformed handshake or frame, an insert of the
/// wrong dimension, or a record whose apply diverges from its frame (wrong
/// assigned id or version) poisons the replica: tailing stops and
/// Progress::error names the problem. The cross-replica checker in
/// tests/test_replication.cc proves the applied state bit-identical to an
/// oracle replay of the primary's log prefix, across shard counts.
class Replica {
 public:
  struct Options {
    /// Shard factory + shard count for the replica's own ShardedIndex —
    /// deliberately independent of the primary's (placement independence:
    /// results are bit-identical across shard configurations).
    core::DynamicIndex::Factory factory;
    size_t num_shards = 2;
    /// Wait between reconnect attempts.
    uint64_t reconnect_backoff_us = 20000;
    /// Socket receive timeout (also the Stop() responsiveness bound).
    uint64_t recv_timeout_us = 100000;
    /// Test-only crash-injection hook ("repl:apply:before", ...).
    std::function<void(const char*)> failpoint;
  };

  /// Replication lag, observable at any time.
  struct Progress {
    uint64_t applied_version = 0;  ///< mutations applied locally
    /// Primary's last appended version as last heard (shipped frames and
    /// heartbeats both advance it); 0 = never connected.
    uint64_t primary_version = 0;
    uint64_t lag_records = 0;      ///< primary_version - applied_version
    uint64_t lag_bytes = 0;        ///< unshipped bytes, from heartbeats
    uint64_t records_applied = 0;  ///< lifetime, across reconnects
    uint64_t bootstraps = 0;       ///< checkpoint images restored
    uint64_t reconnects = 0;       ///< connection attempts after the first
    bool connected = false;
    std::string error;             ///< nonempty = replica poisoned, stopped
  };

  Replica(std::string host, uint16_t port, Options options);
  ~Replica();  ///< Stop()s.

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Starts the tail thread. Idempotent.
  void Start();

  /// Stops tailing and joins; the applied state stays queryable. Idempotent.
  void Stop();

  /// Immutable read view of the applied state (same MVCC semantics as the
  /// primary's snapshots; Progress::applied_version names the cut).
  ShardedSnapshot AcquireSnapshot() const;

  /// Convenience: AcquireSnapshot().Query(vec, k).
  std::vector<util::Neighbor> Query(const float* vec, size_t k) const;

  Progress progress() const;

  /// Blocks until applied_version >= version, the replica is poisoned, or
  /// the deadline passes. Returns whether the version was reached.
  bool WaitForVersion(uint64_t version, uint64_t timeout_us) const;

  /// Promotion to primary: stops tailing, opens a *fresh* WAL in `wal_dir`
  /// (throws if it already holds segments or checkpoints), adopts the
  /// applied state as the new log's base, and seals it with an initial
  /// checkpoint so the new log is self-contained. The returned log is
  /// ready to attach to a serve::Server over index() — at which point this
  /// node acks writes. Every record that was applied here (i.e. acked and
  /// shipped before the old primary died) is in the promoted state.
  std::unique_ptr<WriteAheadLog> Promote(const std::string& wal_dir,
                                         WriteAheadLog::Options wal_options);

  /// The replica's index (owned). Borrow it to attach a Server after
  /// Promote(); mutating it while the tail thread runs breaks density.
  ShardedIndex* index() { return index_.get(); }
  const ShardedIndex* index() const { return index_.get(); }

 private:
  void TailLoop();
  /// One connection: handshake, then apply frames until the socket drops,
  /// Stop() is called, or the stream poisons the replica. Returns false
  /// when the tail loop should exit (stop/poison), true to reconnect.
  bool StreamOnce();
  void ApplyFrame(const unsigned char* body, size_t len);
  void Failpoint(const char* site) const;

  std::string host_;
  uint16_t port_ = 0;
  Options options_;
  std::unique_ptr<ShardedIndex> index_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  ///< applied_version advances
  Progress progress_;
  int fd_ = -1;  ///< live socket, for Stop() to shut down
  bool stopping_ = false;
  bool started_ = false;
  std::thread tail_thread_;
};

}  // namespace serve
}  // namespace lccs

#endif  // LCCS_SERVE_REPLICATION_H_
