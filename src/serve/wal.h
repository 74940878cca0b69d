#ifndef LCCS_SERVE_WAL_H_
#define LCCS_SERVE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/sharded_index.h"

namespace lccs {
namespace serve {

/// serve::WriteAheadLog — the durability half of the serving engine.
///
/// PR 6 gave every mutation ack a dense position in the applied total order
/// (MutationResponse::state_version); this class makes that order survive a
/// `kill -9`. The contract is *acked implies durable*: serve::Server appends
/// each mutation's record here before fulfilling its ack, and only acks
/// after an fsync that covers the record. Recovery then reconstructs
/// exactly some dense prefix of the log — at least everything acked, never
/// a phantom beyond what was logged — which is what lets the
/// crash-injection harness check a recovered server bit-for-bit against an
/// oracle replay of the acked prefix.
///
/// On-disk layout (one directory, native endianness, tag-checked):
///
///   wal_<first_version, 20 digits>.log     append-only record segments
///   checkpoint_<version, 20 digits>.ckpt   logical snapshots (atomic)
///
/// Segment header (24 bytes):
///
///   offset  size  field
///        0     8  magic "LCCSWAL1"
///        8     4  format version (uint32, currently 1)
///       12     4  endianness tag (uint32 0x01020304, as storage/flat_file)
///       16     8  version of the segment's first record (uint64)
///
/// Record frame (length-prefixed + checksummed, so a torn tail is
/// detectable):
///
///   offset  size  field
///        0     4  body length in bytes (uint32, kMinFrameBodyBytes..
///                 kMaxFrameBodyBytes)
///        4     8  FNV-1a 64 checksum of the body
///       12   ...  body: version (uint64), kind (uint8: 0 insert /
///                 1 remove), global id (int32); inserts append
///                 dim (uint32) + dim float32 coordinates
///
/// One codec owns both layouts: EncodeFrame and FramePrelude below, and in
/// wal.cc the segment-header writer and parser plus the frame reader that
/// recovery (ScanSegment) and the streaming Tailer share.
///
/// Records within a segment carry consecutive versions starting at the
/// header's first_version; segments are contiguous end-to-end. Appending
/// rotates to a new segment past Options::segment_bytes so checkpoint
/// truncation can reclaim whole files.
///
/// The segment stream is also the **replication wire format**: a
/// serve::LogShipper tails these files (TailSegments) and forwards the raw
/// record frames — prelude + body, byte for byte — to followers over a
/// socket, with a checkpoint (the on-disk checkpoint encoding, below) as
/// the bootstrap. Length-prefixed, checksummed records need no re-framing;
/// replication adds exactly one wire-only record kind (2 = progress
/// heartbeat, serve/replication.h), framed by the same EncodeFrame, that
/// never appears in segment files.
///
/// Checkpoint file: header (magic "LCCSCKP1" + format + endianness tag,
/// 16 bytes), then the body — state_version (uint64), next_id (int64),
/// metric (uint32), dim (uint32), row count (uint64), ascending surviving
/// global ids (int32 each), their vectors (row-major float32) — and a
/// trailing FNV-1a 64 checksum of the body. Written to `<path>.tmp`,
/// fsynced and atomically published (storage::PublishFile), so a crash
/// mid-checkpoint leaves no half-visible snapshot; recovery loads the
/// newest file that validates and ignores the rest.
///
/// Recovery (Recover): restore the newest valid checkpoint (if none, keep
/// the caller-built base state), replay every record after it in version
/// order, stop at the first torn/corrupt record and physically truncate it
/// away (segments stranded past a hole are quarantined as `.orphan` — a
/// hole can never be bridged, but durable bytes are never deleted on a
/// fallback path), then resume appending at the next dense version. A
/// segment whose header is damaged — including a header whose first
/// version disagrees with the file name — is quarantined whole.
///
/// Thread safety: all methods are serialized on an internal mutex, so the
/// writer thread's Append/Sync can race an external CheckpointNow. Recover
/// must run before the first Append (it positions the log; it is also how
/// an empty directory is adopted).
class WriteAheadLog {
 public:
  /// When an ack may be released relative to the fsync covering its record.
  /// The policy itself is enforced by serve::Server's writer loop (the log
  /// just appends and syncs on command); it lives here so one object
  /// carries the whole durability configuration.
  enum class FsyncPolicy : uint8_t {
    kGroupCommit,  ///< one fsync covers a run of records; acks wait for it
    kEveryRecord,  ///< fsync (and ack) per record — the slow, strict mode
  };

  struct Options {
    FsyncPolicy fsync_policy = FsyncPolicy::kGroupCommit;
    /// Group commit: force an fsync once this many acks are pending (or
    /// once the oldest has waited 1 ms, even while the queue stays busy).
    size_t group_commit_max_records = 64;
    /// Rotate to a fresh segment once the current one reaches this size.
    size_t segment_bytes = 4u << 20;
    /// Test-only crash-injection hook, invoked at named durability-critical
    /// sites ("wal:append:mid_record", "wal:fsync:before", ...) so the
    /// kill harness can SIGKILL the process half-way through any of them.
    std::function<void(const char*)> failpoint;
  };

  /// One logged mutation. Refused removes are logged too — the log mirrors
  /// the dense version counter, which consumes a position either way.
  struct Record {
    uint64_t version = 0;
    bool is_insert = false;
    int32_t id = -1;         ///< insert: assigned global id; remove: target
    std::vector<float> vec;  ///< insert payload; empty for removes
  };

  /// Opens (creating if needed) the log directory. Does not read anything:
  /// call Recover() to adopt existing state before the first Append.
  WriteAheadLog(std::string dir, Options options);
  explicit WriteAheadLog(std::string dir)
      : WriteAheadLog(std::move(dir), Options()) {}
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  struct RecoveryResult {
    uint64_t checkpoint_version = 0;  ///< 0 = no checkpoint restored
    uint64_t replayed = 0;            ///< records applied from the tail
    uint64_t final_version = 0;       ///< index state_version afterwards
    uint64_t truncated_bytes = 0;     ///< torn/corrupt suffix removed
    /// Segments stranded past a replay hole (or whose header itself was
    /// damaged). They may hold durable records above the recovered prefix,
    /// so they are never deleted: each is renamed to `<name>.orphan` for a
    /// later audit (lccs_tool wal-dump lists them).
    uint64_t orphaned_segments = 0;
    uint64_t orphaned_bytes = 0;
  };

  /// Restores `index` to the durable cut: newest valid checkpoint, then the
  /// contiguous valid WAL tail (everything after a torn or corrupt record
  /// is physically discarded; segments stranded beyond a hole are
  /// quarantined as `.orphan`, never deleted). Positions the log so the
  /// next Append must carry final_version + 1. Must be called exactly once,
  /// before any Append — also on a fresh directory, where it is a cheap
  /// no-op that adopts the index's current state_version as the base.
  RecoveryResult Recover(ShardedIndex* index);

  /// Appends one record frame (two write()s: length+checksum prelude, then
  /// the body — a kill between them leaves a detectably torn tail). Enforces
  /// version density: `record.version` must be exactly one past the last
  /// appended record, so a failed append (disk full) jams the log — every
  /// later append throws instead of logging across a hole, and the server
  /// above fails those acks rather than lying about durability.
  /// Does not fsync; durability needs a covering Sync().
  void Append(const Record& record);

  /// fsyncs the current segment if any records were appended since the
  /// last sync. Returns true when an fsync actually ran.
  bool Sync();

  /// Records appended since the last fsync (0 = everything durable).
  size_t pending_records() const;

  /// Version of the last appended (or recovered) record; 0 before any.
  uint64_t last_version() const;

  /// Persists a logical snapshot (atomically published), deletes older
  /// checkpoint files, and truncates every whole segment whose records all
  /// lie at or below the checkpoint version. Serialized against Append, so
  /// serve::Server may call it from any thread.
  void WriteCheckpoint(const ShardedIndex::CheckpointState& state);

  struct Stats {
    uint64_t fsyncs = 0;
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t checkpoints = 0;
    uint64_t segments_created = 0;
    uint64_t segments_deleted = 0;   ///< reclaimed below checkpoints
    uint64_t recovery_replayed = 0;  ///< records replayed by Recover
  };
  Stats stats() const;

  const Options& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  // --- Inspection (wal-dump tool + recovery tests) --------------------------

  struct SegmentInfo {
    std::string path;
    uint64_t first_version = 0;
  };
  /// WAL segments in `dir`, ascending by first version.
  static std::vector<SegmentInfo> ListSegments(const std::string& dir);

  struct CheckpointInfo {
    std::string path;
    uint64_t version = 0;
  };
  /// Checkpoint files in `dir`, ascending by version.
  static std::vector<CheckpointInfo> ListCheckpoints(const std::string& dir);

  struct ScanResult {
    uint64_t first_version = 0;  ///< from the segment header
    uint64_t records = 0;        ///< valid records scanned
    uint64_t last_version = 0;   ///< version of the last valid record
    uint64_t valid_bytes = 0;    ///< header + valid records, in bytes
    bool clean = true;           ///< false: torn or corrupt suffix follows
    std::string error;           ///< what was wrong at valid_bytes
  };
  /// Scans one segment, invoking `fn` (may be null) for every valid record
  /// in order with its byte offset; stops at the first torn/corrupt record
  /// without throwing (a torn tail is an expected crash artifact). A header
  /// whose first version differs from the one in the file name (or a file
  /// not named wal_<version>.log) is damaged: nothing is valid. Throws
  /// when the file cannot be opened — and when a short read is a real I/O
  /// error (std::ferror) rather than end-of-file: truncating durable bytes
  /// because a read transiently failed would silently lose acked records.
  static ScanResult ScanSegment(
      const std::string& path,
      const std::function<void(const Record&, uint64_t offset)>& fn);

  /// `.orphan` files quarantined by Recover(), ascending by name. These are
  /// former segments stranded past a replay hole; they are kept for audit
  /// and never parsed as live segments.
  static std::vector<std::string> ListOrphans(const std::string& dir);

  /// Reads and fully validates (magic, endianness, sizes, checksum) one
  /// checkpoint file. Throws std::runtime_error naming what is wrong.
  static ShardedIndex::CheckpointState ReadCheckpoint(const std::string& path);

  /// Checkpoint-file encoding of `state` (header + body + digest), exactly
  /// the bytes WriteCheckpoint would publish. Replication's bootstrap
  /// payload — the on-disk encoding is the wire encoding.
  static std::vector<unsigned char> EncodeCheckpoint(
      const ShardedIndex::CheckpointState& state);

  /// Inverse of EncodeCheckpoint: validates and decodes an in-memory
  /// checkpoint image. Throws std::runtime_error (prefixed with `context`)
  /// on any mismatch.
  static ShardedIndex::CheckpointState DecodeCheckpoint(
      const unsigned char* bytes, size_t len, const std::string& context);

  /// A checkpoint image's prefix: the 16-byte header and the 32-byte fixed
  /// body (version, next id, metric, dim, row count).
  static constexpr size_t kCheckpointPrefixBytes = 48;

  /// The whole image length that a checkpoint prefix implies, read from the
  /// first `len` bytes of `bytes` (at least kCheckpointPrefixBytes of them,
  /// else it throws as truncated). Validates the prefix exactly as
  /// DecodeCheckpoint does, so a reader can size its buffer from a header
  /// it trusts before the rows arrive. Throws std::runtime_error (prefixed
  /// with `context`).
  static uint64_t CheckpointImageBytes(const unsigned char* bytes, size_t len,
                                       const std::string& context);

  // --- Log-frame codec (segment files and the replication stream) ---------

  static constexpr size_t kFramePreludeBytes = 12;  ///< length + FNV-1a 64
  /// Smallest body: version (8) + kind (1) + id (4).
  static constexpr uint32_t kMinFrameBodyBytes = 13;
  /// Length sanity cap — a torn prelude must not make a reader allocate
  /// gigabytes before the checksum gets a chance to reject it.
  static constexpr uint32_t kMaxFrameBodyBytes = 16u << 20;

  /// A span of body bytes handed to EncodeFrame.
  struct Bytes {
    const void* data;
    size_t size;
  };
  /// The one frame encoder: prelude, then a body of version, kind, id and
  /// the `tail` spans in order (an insert's dim + coordinates, a
  /// heartbeat's gauges, nothing for a remove). Throws std::runtime_error
  /// when the body would exceed kMaxFrameBodyBytes.
  static std::vector<unsigned char> EncodeFrame(
      uint64_t version, uint8_t kind, int32_t id,
      std::initializer_list<Bytes> tail);

  /// A decoded frame prelude: the one length-bounds and checksum check,
  /// for file readers and the replica's socket loop alike.
  struct FramePrelude {
    uint32_t body_bytes = 0;
    uint64_t checksum = 0;
    /// Reads kFramePreludeBytes bytes; false when the announced body length
    /// is outside [kMinFrameBodyBytes, kMaxFrameBodyBytes].
    bool Decode(const unsigned char* prelude);
    /// Whether `body` (body_bytes long) matches the checksum.
    bool Matches(const unsigned char* body) const;
  };

  /// Decodes one record *body* (the bytes after the prelude; the caller has
  /// already verified length + checksum). Returns false when the body is
  /// malformed. Only kinds 0/1 (insert/remove) are accepted — the wire-only
  /// heartbeat kind is handled in serve/replication.cc.
  static bool DecodeRecordBody(const unsigned char* body, size_t len,
                               Record* out);

  /// Applies one logged mutation to `index`: the replay step of Recover
  /// and of serve::Replica. A checksummed record can still carry an insert
  /// of the wrong dimension (Append and DecodeRecordBody accept any), so
  /// that throws std::runtime_error before anything is applied. An apply
  /// whose result disagrees with the record (another assigned id, another
  /// version) throws std::runtime_error naming the divergence.
  static void ApplyRecord(ShardedIndex* index, const Record& record);

  // --- Streaming reads (replication) ----------------------------------------

  /// A cursor over the live segment stream of a WAL directory, starting at
  /// `start_version`. Poll() delivers whole valid records in dense version
  /// order together with their raw on-disk frame (prelude + body) so a
  /// LogShipper can forward segment bytes verbatim. A partial record at the
  /// tail of the newest segment is treated as an append in flight (Poll
  /// returns and the caller retries later), not as corruption; settled
  /// corruption — a mangled frame with more data or a successor segment
  /// beyond it — throws, as does a GC gap (start_version already truncated
  /// away), which a shipper surfaces by dropping the connection so the
  /// follower re-bootstraps.
  class Tailer {
   public:
    Tailer(Tailer&& other) noexcept = default;
    Tailer& operator=(Tailer&&) = delete;
    Tailer(const Tailer&) = delete;

    /// Delivers up to `max_records` next records to `fn` (record, raw
    /// frame bytes). Returns the number delivered; 0 = caught up (no
    /// complete new record yet).
    size_t Poll(const std::function<void(const Record&,
                                         const unsigned char* frame,
                                         size_t frame_bytes)>& fn,
                size_t max_records);

    /// Version the next delivered record will carry.
    uint64_t next_version() const { return next_version_; }

    /// Bytes on disk beyond the cursor (stat-based; includes any partial
    /// tail). The shipper reports this as follower lag in bytes.
    uint64_t PendingBytes() const;

   private:
    friend class WriteAheadLog;
    struct FileCloser {
      void operator()(std::FILE* f) const { std::fclose(f); }
    };
    using File = std::unique_ptr<std::FILE, FileCloser>;

    Tailer() = default;
    bool AdvanceSegment();

    std::string dir_;
    File file_;
    std::string segment_path_;
    uint64_t segment_first_version_ = 0;
    uint64_t offset_ = 0;         ///< read position in the open segment
    uint64_t next_version_ = 1;   ///< version of the record at offset_
    uint64_t deliver_from_ = 1;   ///< records below this are skipped silently
  };

  /// Opens a streaming cursor positioned at `start_version` (which must be
  /// >= 1). Throws when the directory holds segments but none covers
  /// start_version (checkpoint GC already reclaimed it) — the caller must
  /// bootstrap from a checkpoint instead. An empty directory is fine when
  /// start_version == 1.
  static Tailer TailSegments(const std::string& dir, uint64_t start_version);

 private:
  void Failpoint(const char* site) const;
  void OpenSegmentLocked(uint64_t first_version);
  void CloseSegmentLocked();
  bool SyncLocked();
  /// Deletes every segment fully covered by `version` (a successor segment
  /// starts at or below version + 1) and never the open one.
  void TruncateSegmentsBelowLocked(uint64_t version);

  std::string dir_;
  Options options_;

  mutable std::mutex mu_;
  int fd_ = -1;                        ///< current segment, append position
  std::string segment_path_;
  uint64_t segment_bytes_written_ = 0;
  uint64_t next_version_ = 1;          ///< version the next Append must carry
  size_t pending_records_ = 0;         ///< appended since the last fsync
  bool recovered_ = false;             ///< Recover() ran
  Stats stats_;
};

/// Test-only read-failure injection for segment scans: when set, the hook is
/// consulted before every fread in ScanSegment/Tailer with the file path and
/// byte offset; returning true simulates a transient I/O error at that point
/// (the read fails as if std::ferror were set). Pass nullptr to clear.
/// Mirrors storage::SetStorageFailpoint. Not thread-safe; tests only.
void SetWalReadFailpoint(
    std::function<bool(const std::string& path, uint64_t offset)> hook);

}  // namespace serve
}  // namespace lccs

#endif  // LCCS_SERVE_WAL_H_
