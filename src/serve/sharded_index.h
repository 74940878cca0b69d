#ifndef LCCS_SERVE_SHARDED_INDEX_H_
#define LCCS_SERVE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dynamic_index.h"
#include "core/snapshot.h"

namespace lccs {
namespace serve {

/// An immutable read view of a whole ShardedIndex: one core::Snapshot per
/// shard, all captured under a single reader-lock hold of
/// ShardedIndex::AcquireSnapshot(). Mutations hold the ShardedIndex writer
/// lock, so the S per-shard captures form one *atomic cut* of the mutation
/// log — the state after exactly state_version()
/// mutations, which is what makes serve::Server's responses black-box
/// checkable against an oracle replay. Queries run with no lock held and
/// stay bit-identical for as long as the view is alive, across concurrent
/// inserts, removes and shard consolidations (a shard rebuild installing
/// mid-capture is harmless: an install changes no logical content, the
/// invariance property the concurrency tests pin down).
class ShardedSnapshot {
 public:
  ShardedSnapshot() = default;

  /// k nearest surviving neighbors at state_version(), global ids —
  /// QueryBatch over a window of one, identical to ShardedIndex::Query at
  /// the acquisition point.
  std::vector<util::Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries over the same cut. The S shard snapshots answer the
  /// whole window concurrently, one util::ParallelFor task per shard (each
  /// shard's engine runs inline within its task), then every row's S
  /// top-k lists, already in global ids, are merged. Rows do not depend on
  /// the window's other rows or on num_threads (1 = fully sequential); a
  /// shard that throws fails the whole call once every shard task has
  /// finished.
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const;

  /// Mutations admitted before this snapshot's cut.
  uint64_t state_version() const { return state_version_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  friend class ShardedIndex;

  std::vector<core::Snapshot> shards_;
  uint64_t state_version_ = 0;
};

/// Partitions points across S per-shard core::DynamicIndex instances —
/// the data-plane half of the serving engine (serve::Server is the control
/// plane). Sharding bounds per-shard epoch size, so consolidations rebuild
/// 1/S of the data at a time, and splits a batch of queries two ways:
/// the S shards go across the shared thread pool, one task per shard, and
/// each shard's engine (hashing, CSA search, verification) runs inline
/// within its task over its own 1/S of the rows. A single shard keeps the
/// engine's own fan-out across the pool instead.
///
/// One id space: the ShardedIndex assigns ids in insert order (0, 1, 2,
/// ... — exactly like a single DynamicIndex, so the two are drop-in
/// interchangeable), and each shard stores its points under those same
/// ids through DynamicIndex's caller-assigned-id Build/Insert. Bulk load
/// (Build) places rows by contiguous range: shard s owns ids
/// [s*n/S, (s+1)*n/S) as a zero-copy storage::SliceStore view, so all S
/// shards share the dataset's one (possibly memory-mapped) store instead
/// of holding private copies. Inserted points, and every survivor of a
/// checkpoint restore, are placed by a splitmix64 hash of the id (range
/// placement would pile a live insert stream onto the last shard).
/// Placement is therefore a pure function of the id and the row count of
/// the last Build — no per-id map — and it is what Remove and Contains
/// use to find a point's shard. Each shard holds an ascending subset of
/// the ids, so its result lists come back sorted by (distance, id) and the
/// S-way util::MergeSortedTopK produces exactly the ranking a single index
/// over all survivors would — with exhaustive-verification shard
/// configurations this is bit-identical, the property tests/test_serve.cc's
/// black-box checker relies on.
///
/// Versioning: every mutation — ApplyInsert, or ApplyRemove even when it
/// refuses an unknown/dead id — advances a dense `state_version` counter
/// under the writer lock. AcquireSnapshot() captures all S shard views
/// under one reader-lock hold and stamps them with that counter, giving
/// serve::Server an MVCC read view it can execute a whole batching window
/// against while the writer keeps applying mutations.
///
/// Consolidation is *scheduled externally*: shards are built with
/// background_rebuild = false and MaintainShards() — called by
/// serve::Server between batching windows — triggers per-shard background
/// rebuilds off the DynamicIndex::stats() snapshots, at most
/// Options::max_concurrent_rebuilds shards at a time (rebuilds are
/// memory- and CPU-hungry; S of them at once would starve the query path).
/// A shard is due by DynamicIndex::Stats::consolidation_due: its delta or
/// its tombstones have reached the threshold — accumulated tombstones widen
/// every snapshot's epoch over-fetch margin, so they are pressure too.
///
/// Thread safety: mirrors DynamicIndex. Query/QueryBatch/AcquireSnapshot
/// take a reader lock on the shard vector and counters (shard captures
/// run under it — they are const and internally locked);
/// ApplyInsert/ApplyRemove take the writer lock. Lock order is always
/// ShardedIndex → shard, and shard rebuild threads never touch the
/// ShardedIndex, so the hierarchy is acyclic.
class ShardedIndex : public baselines::AnnIndex {
 public:
  struct Options {
    size_t num_shards = 4;
    util::Metric metric = util::Metric::kEuclidean;
    /// Dimensionality; required when inserting before any Build (Build
    /// overrides it from the dataset).
    size_t dim = 0;
    /// Forwarded to every shard's DynamicIndex::Options::rebuild_threshold;
    /// MaintainShards consolidates a shard once its delta size (or
    /// tombstone count) reaches it. Shards never self-schedule a rebuild.
    size_t rebuild_threshold = 1024;
    /// At most this many shards consolidating concurrently (MaintainShards
    /// policy knob).
    size_t max_concurrent_rebuilds = 1;
    /// Forwarded to every shard's DynamicIndex::Options::quantize: each
    /// shard epoch gets an int8 storage::QuantizedStore sibling and serves
    /// candidate scoring through the two-phase quantized pipeline.
    bool quantize = false;
    /// Forwarded to every shard's DynamicIndex::Options::spill_dir: when
    /// non-empty, shard consolidations stream survivors to flat files there
    /// and serve them memory-mapped instead of materializing per-shard
    /// heap snapshots.
    std::string spill_dir;
  };

  /// Outcome of a versioned mutation: whether it took effect, the global id
  /// it concerned, and the dense mutation-log position it consumed (refused
  /// removes consume one too — the log stays dense, which the black-box
  /// checker's replay depends on).
  struct MutationResult {
    bool applied = false;
    int32_t id = -1;
    uint64_t state_version = 0;
  };

  /// `factory` creates the epoch index of every shard (same contract as
  /// DynamicIndex::Factory — called once per shard consolidation).
  ShardedIndex(core::DynamicIndex::Factory factory, Options options);

  // --- AnnIndex interface -------------------------------------------------

  /// Bulk load: rows get ids 0..n-1, are range-partitioned across the
  /// shards, and each non-empty shard is built over a zero-copy slice
  /// of the dataset's shared store. Previous contents are discarded
  /// (in-flight shard rebuilds are drained first) and the state version
  /// resets to 0.
  void Build(const dataset::Dataset& data) override;

  /// k nearest surviving neighbors by true distance, global ids.
  /// Equivalent to AcquireSnapshot().Query(query, k).
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;

  /// Batched queries over one snapshot; identical to per-row Query by
  /// construction (see ShardedSnapshot::QueryBatch).
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override;

  /// Appends a dim()-dimensional vector; returns its global id (insert
  /// order, monotone across the whole sharded index). ApplyInsert with the
  /// version dropped.
  int32_t Insert(const float* vec) override;

  /// Tombstones the point with global id `id`; returns false when the id
  /// was never assigned or is already deleted. ApplyRemove with the version
  /// dropped (the log position is consumed either way).
  bool Remove(int32_t id) override;

  // --- Versioned mutations ------------------------------------------------

  /// Insert stamped with the mutation-log position it consumed.
  MutationResult ApplyInsert(const float* vec);

  /// Remove stamped with the mutation-log position it consumed. Refused
  /// removes (unknown or already-dead id) still consume a position, with
  /// applied == false.
  MutationResult ApplyRemove(int32_t id);

  /// O(1)-per-shard immutable read view: all S shard snapshots captured
  /// under one reader-lock hold — an atomic cut at state_version().
  /// Queries on the view run lock-free and never block the writer.
  ShardedSnapshot AcquireSnapshot() const;

  /// Mutations applied so far (the version a snapshot acquired now would
  /// carry). Build resets it to 0.
  uint64_t state_version() const;

  size_t dim() const override;
  size_t IndexSizeBytes() const override;
  std::string name() const override;

  // --- Sharding introspection ---------------------------------------------

  size_t num_shards() const;
  size_t live_count() const;       ///< surviving points across all shards
  bool Contains(int32_t id) const; ///< id assigned and not deleted

  /// Per-shard DynamicIndex::stats() snapshots (index = shard number).
  std::vector<core::DynamicIndex::Stats> ShardStats() const;

  /// Copies the surviving vectors in ascending global-id order across all
  /// shards; `ids` (optional) receives the matching global ids. The oracle
  /// input, exactly like DynamicIndex::LiveVectors.
  util::Matrix LiveVectors(std::vector<int32_t>* ids = nullptr) const;

  // --- Checkpointing --------------------------------------------------------

  /// A consistent cut of the logical contents — everything crash recovery
  /// needs to reconstruct an equivalent index: the dense mutation-log
  /// position, the id counter, and the surviving (global id, vector) pairs
  /// in ascending id order. Deliberately *logical*: it records what
  /// survives, not which shard held it or what the epoch/delta split was,
  /// because query results are provably placement-independent (the
  /// bit-identical-across-shard-configs property tests/test_serve.cc pins
  /// down).
  struct CheckpointState {
    uint64_t state_version = 0;  ///< mutations applied at the cut
    int32_t next_id = 0;         ///< next global id to assign
    util::Metric metric = util::Metric::kEuclidean;
    size_t dim = 0;
    std::vector<int32_t> ids;  ///< surviving global ids, ascending
    util::Matrix vectors;      ///< ids.size() x dim; row i = vector of ids[i]
  };

  /// Captures a CheckpointState under one reader-lock hold — an atomic cut
  /// at state_version(), concurrent with queries and snapshots.
  CheckpointState CaptureCheckpointState() const;

  /// Replaces the whole contents with `state`: every surviving row is
  /// hash-placed (the insert rule — legal even for rows the pre-crash index
  /// had range-placed via Build, since placement is invisible in results),
  /// dead ids are simply in no shard, and the id/version counters resume
  /// exactly where the cut was taken. Fresh shards are built outside the
  /// lock, then installed under one writer-lock hold. Throws
  /// std::runtime_error on an inconsistent state (shape mismatch, ids out
  /// of range or not ascending).
  void RestoreCheckpointState(const CheckpointState& state);

  // --- Consolidation scheduling -------------------------------------------

  /// The per-shard consolidation scheduler: triggers a background rebuild
  /// on the shards whose stats say consolidation_due (delta *or tombstone
  /// count* at Options::rebuild_threshold) — largest backlog first — until
  /// Options::max_concurrent_rebuilds are in flight. Returns the number of
  /// rebuilds triggered by this call. Cheap when nothing is due (S stats
  /// snapshots); serve::Server calls it after every batching window and
  /// from its writer thread.
  size_t MaintainShards();

  /// Synchronously consolidates every shard (tests / shutdown barrier).
  void ConsolidateAll();

  /// Blocks until no shard rebuild is in flight; rethrows the first error a
  /// background rebuild died with.
  void WaitForRebuilds() const;

  /// The shard an id hashes to, given S shards (splitmix64 finalizer;
  /// exposed for tests).
  static size_t ShardOf(int32_t id, size_t num_shards);

 private:
  /// The options of every shard: `metric` and `dim`, the rest forwarded
  /// from options_ (background_rebuild off — MaintainShards schedules).
  core::DynamicIndex::Options ShardOptions(util::Metric metric,
                                           size_t dim) const;

  /// The shard holding non-negative `id`: its Build range when
  /// id < built_rows_, else ShardOf. Caller holds the lock.
  size_t ShardFor(int32_t id) const;

  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock() const;

  /// LiveVectors body; caller holds (at least) the reader lock.
  util::Matrix LiveVectorsLocked(std::vector<int32_t>* ids) const;

  core::DynamicIndex::Factory factory_;
  Options options_;

  /// Guards shards_ and the counters below (the shards guard themselves).
  /// Same writer-starvation gate as DynamicIndex: readers tap gate_ first,
  /// so a steady query stream cannot park a writer forever.
  mutable std::shared_mutex mutex_;
  mutable std::mutex gate_;
  std::vector<std::unique_ptr<core::DynamicIndex>> shards_;
  int32_t next_id_ = 0;
  /// Rows of the last Build, range-placed; 0 after a restore or before any
  /// Build, when every id is hash-placed.
  size_t built_rows_ = 0;
  uint64_t state_version_ = 0;  ///< dense mutation-log length
};

}  // namespace serve
}  // namespace lccs

#endif  // LCCS_SERVE_SHARDED_INDEX_H_
