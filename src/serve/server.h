#ifndef LCCS_SERVE_SERVER_H_
#define LCCS_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/sharded_index.h"
#include "serve/wal.h"

namespace lccs {
namespace serve {

class LogShipper;  // serve/replication.h

/// What a query future resolves to: the neighbors plus enough metadata to
/// check the answer against a sequential oracle black-box (the
/// snapshot-isolation contract tests/test_serve.cc verifies).
struct QueryResponse {
  std::vector<util::Neighbor> neighbors;
  /// Serving window that executed this query (1-based, dense). Queries with
  /// equal batch_id were answered by one QueryBatch call against one
  /// ShardedSnapshot.
  uint64_t batch_id = 0;
  /// Version of the snapshot this query's window executed against: the
  /// number of mutations it observes. Lies between the number applied when
  /// the window's first query was admitted and the number applied at the
  /// snapshot cut — mutations keep applying concurrently while a window is
  /// open, so the two need not coincide. A sequential replay of mutations
  /// 1 .. state_version followed by an exact k-NN over the survivors
  /// reproduces `neighbors` exactly (with exhaustive shard
  /// configurations); batches observe versions monotone in batch_id.
  uint64_t state_version = 0;
  /// Occupancy of the window (observability; tests assert window closure).
  size_t batch_size = 0;
};

/// What an insert/remove future resolves to.
struct MutationResponse {
  /// Insert: always true. Remove: whether the id was live when sequenced.
  bool applied = false;
  /// Insert: the assigned global id. Remove: the target id echoed back.
  int32_t id = -1;
  /// This mutation's position in the applied total order (1-based): it is
  /// mutation number `state_version`. Mutations are applied strictly in
  /// admission order by the writer thread, so these are dense and unique —
  /// the black-box checker rebuilds the full mutation log from them.
  uint64_t state_version = 0;
};

/// Why a batching window closed (counters in Server::Stats; the
/// deterministic window tests assert on them). Mutations never close a
/// window: they apply concurrently while the window fills and executes.
enum class WindowClose : uint8_t {
  kFull,      ///< max_batch queries collected
  kDeadline,  ///< max_delay_us elapsed since the first query's admission
  kShutdown,  ///< Stop() drained the window
};

/// Asynchronous MVCC serving engine over a ShardedIndex: clients submit
/// Query / Insert / Remove requests from any thread and get futures. Two
/// internal threads split the work:
///
///   * a **writer** applies mutations strictly in admission order through
///     ShardedIndex::ApplyInsert/ApplyRemove, stamping each response with
///     the dense mutation-log position it consumed;
///   * a **window** thread coalesces adjacent queries into batching
///     windows. A window closes when it holds max_batch queries, when
///     max_delay_us has passed since its first query was admitted, or at
///     shutdown — never because a mutation arrived. It then executes as one
///     ShardedSnapshot::QueryBatch against an immutable snapshot acquired
///     at execution time, fanned out over the shared thread pool, while
///     the writer keeps applying mutations concurrently.
///
/// Consistency (snapshot isolation, black-box checkable): every query in a
/// batch observes *exactly* the mutations in the prefix 1 ..
/// QueryResponse::state_version — the snapshot is one atomic cut of the
/// mutation log, taken no earlier than the batch's first admission and no
/// later than its execution. Versions are monotone across batch_ids
/// (windows execute in order on one thread against a monotone log) and
/// consistent with each client's session: a response can never miss a
/// mutation the same client had already seen acknowledged before
/// submitting. tests/test_serve.cc checks all of this black-box: an oracle
/// replays mutations 1..state_version sequentially and must reproduce
/// every batch result bit-for-bit, and fabricated snapshot-leak /
/// torn-read histories must be rejected.
///
/// Admission policy: Options::max_queue bounds the two queues' combined
/// size; when full, new requests are rejected with a broken future
/// (std::runtime_error "server overloaded") instead of growing the backlog
/// — callers see the overload immediately and can shed or retry.
///
/// Consolidation is scheduled from both loops — the window thread after
/// every batch, the writer at the idle edge of a mutation run and at least
/// every 64 applied mutations — via ShardedIndex::MaintainShards();
/// rebuilds run on the shards' background threads and never block
/// admission, and pinned snapshots keep serving the retired epochs until
/// they are released.
///
/// Durability (optional): with Options::wal set, the writer thread appends
/// every mutation's record to the serve::WriteAheadLog *before* fulfilling
/// its ack, under the log's fsync policy — kEveryRecord fsyncs per
/// mutation; kGroupCommit defers acks and releases a whole run of them
/// with one covering fsync (at the queue's idle edge, at
/// group_commit_max_records pending, or when the oldest pending ack ages
/// past 1 ms). So under either policy an acknowledged mutation survives
/// `kill -9` — the invariant the crash-injection harness in
/// tests/test_wal_recovery.cc proves. Options::checkpoint_every makes
/// the writer thread periodically persist a consistent cut through the log
/// (CheckpointNow() does it on demand), truncating obsolete segments.
///
/// Shutdown: Stop() (or the destructor) closes admission, drains both
/// queues — every already-admitted future is fulfilled — and joins both
/// threads. Requests submitted after Stop() get the broken future
/// ("server stopped").
class Server {
 public:
  struct Options {
    /// Window closes when it holds this many queries.
    size_t max_batch = 64;
    /// ... or this many microseconds after its first query was admitted.
    uint64_t max_delay_us = 1000;
    /// Fan-out for the batch execution (ShardedSnapshot::QueryBatch): a
    /// window's shards run across the pool, one task per shard, and each
    /// shard's engine runs inline within its task (a single shard fans its
    /// own engine out instead). 0 = hardware concurrency, 1 = fully
    /// sequential.
    size_t num_threads = 0;
    /// Admission bound (queued, not-yet-served requests of either kind);
    /// 0 = unbounded. The default keeps an overloaded server's backlog
    /// bounded while staying far above any window a healthy server holds.
    size_t max_queue = 65536;
    /// Injectable microsecond clock for the deterministic window tests;
    /// nullptr = std::chrono::steady_clock. A test advancing a fake clock
    /// must call Poke() afterwards — with an injected clock the window
    /// thread parks on its condition variable instead of a timed wait. The
    /// function is called with internal locks held and must not call back
    /// into the Server.
    std::function<uint64_t()> now_us;
    /// Write-ahead log for durable mutations; borrowed, must outlive the
    /// server, and must already have Recover()ed into `index` (that is
    /// also how a fresh log adopts an index's base state). nullptr = no
    /// durability, acks mean in-memory-applied only.
    WriteAheadLog* wal = nullptr;
    /// With a wal: the writer thread checkpoints after every this many
    /// applied mutations (0 = only explicit CheckpointNow() calls).
    size_t checkpoint_every = 0;
    /// Log shipper streaming this server's WAL to followers (borrowed, must
    /// outlive the server; see serve/replication.h). The server never
    /// drives it — shipping is asynchronous by design, acks only wait for
    /// local durability — it just mirrors its counters into Stats so one
    /// stats() call shows the whole primary.
    const LogShipper* shipper = nullptr;
  };

  /// `index` is borrowed and must outlive the server. Its dim() must be
  /// known (built, or constructed with Options::dim) — query/insert vectors
  /// are copied at admission using it.
  Server(ShardedIndex* index, Options options);
  ~Server();  ///< Stop()s.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::future<QueryResponse> SubmitQuery(const float* vec, size_t k);
  std::future<MutationResponse> SubmitInsert(const float* vec);
  std::future<MutationResponse> SubmitRemove(int32_t id);

  /// Closes admission, serves everything already queued, joins both
  /// threads. Idempotent.
  void Stop();

  /// Wakes both threads so they re-read the (injected) clock.
  void Poke();

  /// Persists a consistent cut of the index through the WAL (no-op without
  /// one): captures ShardedIndex::CaptureCheckpointState, writes an
  /// atomically-published checkpoint file, and truncates WAL segments it
  /// supersedes. Callable from any thread, concurrent with serving.
  void CheckpointNow();

  /// Monotonic counters, readable at any time.
  struct Stats {
    uint64_t queries_served = 0;
    uint64_t mutations_applied = 0;
    uint64_t batches = 0;
    uint64_t rejected = 0;  ///< admission-bound + post-Stop rejections
    uint64_t windows_closed_full = 0;
    uint64_t windows_closed_deadline = 0;
    uint64_t windows_closed_shutdown = 0;
    uint64_t rebuilds_triggered = 0;
    /// Periodic (checkpoint_every) checkpoints that threw; the writer
    /// drops the error and keeps serving, the WAL keeps every record.
    uint64_t checkpoint_failures = 0;
    // Durability counters, mirrored from the attached WriteAheadLog
    // (all zero without one) — the observable cost of each fsync policy.
    uint64_t wal_fsyncs = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t recovery_replayed = 0;
    // Replication counters, mirrored from the attached LogShipper (all
    // zero without one) — connected followers and how far the stream got.
    uint64_t followers_connected = 0;
    uint64_t followers_active = 0;
    uint64_t records_shipped = 0;
    uint64_t shipped_version = 0;
  };
  Stats stats() const;

 private:
  struct Request {
    enum Kind : uint8_t { kQuery, kInsert, kRemove };
    Kind kind = kQuery;
    std::vector<float> vec;  ///< query/insert payload (copied at admission)
    size_t k = 0;            ///< query only
    int32_t id = -1;         ///< remove only
    uint64_t arrival_us = 0;
    std::promise<QueryResponse> query_promise;        ///< kQuery
    std::promise<MutationResponse> mutation_promise;  ///< kInsert/kRemove
  };

  uint64_t NowUs() const;
  /// Admission verdict; the non-admitted cases carry distinguishable
  /// errors so callers can retry overloads but give up on shutdown.
  enum class Admission : uint8_t { kAdmitted, kOverloaded, kStopped };
  static const char* AdmissionError(Admission verdict);
  /// Enqueues under mu_ into the queue matching the request kind; bumps
  /// rejected_ on either rejection.
  Admission Admit(Request&& request);
  void WindowLoop();
  void WriterLoop();
  /// Acks whose WAL records are appended but not yet covered by an fsync —
  /// group-commit state owned exclusively by the writer thread.
  struct PendingAcks {
    std::vector<std::pair<std::promise<MutationResponse>, MutationResponse>>
        acks;
    uint64_t oldest_us = 0;  ///< NowUs() when acks.front() was deferred
  };
  void ApplyMutation(Request&& request, PendingAcks* pending, bool idle_after);
  /// One covering fsync, then every deferred ack resolves (or, if the
  /// fsync fails, every deferred future breaks — never claim durability).
  void FlushPendingAcks(PendingAcks* pending);
  void ExecuteBatch(std::vector<Request> batch, WindowClose reason);

  ShardedIndex* index_;
  Options options_;
  /// index_->dim() captured at construction: serving assumes it fixed, and
  /// reading it through the index would put the ShardedIndex reader gate on
  /// every admission.
  size_t dim_ = 0;

  mutable std::mutex mu_;
  std::condition_variable window_cv_;  ///< signals the window thread
  std::condition_variable writer_cv_;  ///< signals the writer thread
  std::deque<Request> query_queue_;
  std::deque<Request> mutation_queue_;
  bool stopping_ = false;

  /// Owned by the window thread exclusively; published to clients only
  /// through response fields. (state_version lives in the ShardedIndex —
  /// the snapshot cut, not this class, names what a batch observed.)
  uint64_t next_batch_id_ = 0;

  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> mutations_applied_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> closed_full_{0};
  std::atomic<uint64_t> closed_deadline_{0};
  std::atomic<uint64_t> closed_shutdown_{0};
  std::atomic<uint64_t> rebuilds_triggered_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};

  std::thread window_thread_;
  std::thread writer_thread_;
};

}  // namespace serve
}  // namespace lccs

#endif  // LCCS_SERVE_SERVER_H_
