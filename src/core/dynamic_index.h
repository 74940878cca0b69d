#ifndef LCCS_CORE_DYNAMIC_INDEX_H_
#define LCCS_CORE_DYNAMIC_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ann_index.h"
#include "core/snapshot.h"
#include "dataset/dataset.h"
#include "storage/vector_store.h"
#include "util/matrix.h"

namespace lccs {
namespace core {

/// Mutable wrapper turning any build-once AnnIndex into an updatable,
/// servable one (the ROADMAP "Incremental updates" item).
///
/// Three structures carry the mutations, the delta-consolidation design of
/// the DiskANN line of work adapted to LCCS-LSH:
///
///   * a static **epoch** (core::EpochState): a snapshot of the points at
///     the last consolidation — a shared storage::VectorStore (heap, the
///     caller's mmap-backed dataset store, or a spill file; see
///     Options::spill_dir) — indexed by the wrapped AnnIndex (LCCS-LSH,
///     linear scan, ...) exactly as if it had been built offline;
///   * an append-only **delta buffer** (core::DeltaBuffer) of vectors
///     inserted since, answered by brute force with the batched SIMD
///     verifier (util::VerifyCandidates makes a few thousand rows
///     essentially free next to the probing cost);
///   * **tombstones**: one per-row atomic version stamp, epoch or delta,
///     carrying the version of the mutation that removed the row (rows
///     removed while a rebuild ran are stamped at its install). The wrapped
///     index never sees them: only core::Snapshot reads the stamps, through
///     its one visibility rule, so any point in mutation history can still
///     be read.
///
/// Reads are MVCC snapshots: AcquireSnapshot() captures the epoch
/// shared_ptr, the delta buffer shared_ptr, the delta prefix length and the
/// mutation version in O(1) under the reader lock, and the returned
/// core::Snapshot then answers queries with no lock held — concurrent
/// inserts, removes and epoch installs never perturb it (the bit-stability
/// property tests/test_dynamic_concurrency.cc races under TSAN). Query and
/// QueryBatch are one-shot snapshots: acquire, answer, release — the same
/// linearization point the old lock-the-world read path had, with the lock
/// held only for the capture. Queries answer over (epoch ∪ delta) ∖
/// tombstones, merging the two partial results by (distance, id) — ids
/// ascend in insert order (assigned by the index, or by the caller under
/// the Build/Insert id contract), so the merged ranking is exactly the
/// ranking an index over the surviving points would produce (the
/// oracle-equivalence property tests/test_dynamic_index.cc locks down).
///
/// Epoch and delta ids each ascend, every epoch id below every delta id, so
/// a lookup (Contains, Remove) is one binary search — over the delta prefix
/// when the id is at or past its first id, else over the epoch ids — plus a
/// read of the row's stamp (0 = live). No id-to-row map exists.
///
/// Once the delta rows or the tombstones reach Options::rebuild_threshold
/// (Stats::consolidation_due — tombstones widen every snapshot's over-fetch
/// margin), an **epoch rebuild** consolidates survivors into a fresh static
/// index on a dedicated background thread: the heavy build runs from an
/// immutable capture without blocking anything, queries keep being served
/// from the old epoch, and the finished epoch is installed with a
/// shared_ptr swap under the writer lock — the only pause writers or
/// readers ever see is the O(rows) reconciliation (bench/micro_dynamic).
/// Snapshots acquired before the install keep the retired epoch and delta
/// buffer alive and bit-identical for as long as they are held. (A
/// dedicated thread and not a pool task: the pool only runs fork-join
/// ranges whose caller waits for them, it has no fire-and-forget entry, and
/// the rebuild blocks on the index rwlock for as long as writers hold it.)
///
/// Thread safety: Query/QueryBatch/AcquireSnapshot take a reader lock and
/// may run freely in parallel; Insert/Remove take the writer lock and may
/// be called from any thread. tests/test_dynamic_concurrency.cc stresses
/// queries and held snapshots against inserts and a mid-query rebuild under
/// TSAN.
class DynamicIndex : public baselines::AnnIndex {
 public:
  /// Creates the epoch index for a snapshot. Called once per consolidation
  /// with no arguments; the returned index is then Built over the snapshot
  /// dataset and never mutated: removed rows are hidden by core::Snapshot
  /// after the index answers, so any AnnIndex works.
  using Factory = std::function<std::unique_ptr<baselines::AnnIndex>()>;

  struct Options {
    util::Metric metric = util::Metric::kEuclidean;
    /// Dimensionality; required when inserting into a never-Built index
    /// (Build overrides it from the dataset).
    size_t dim = 0;
    /// Delta size (or tombstone count) at which consolidation into a fresh
    /// epoch is due (Stats::consolidation_due).
    size_t rebuild_threshold = 1024;
    /// Consolidate on a dedicated background thread (true) or only when the
    /// caller invokes Consolidate() explicitly (false — deterministic, used
    /// by the property tests and benches that sweep delta sizes).
    bool background_rebuild = true;
    /// Builds a storage::QuantizedStore over every epoch snapshot, enabling
    /// the int8 two-phase verification in the wrapped index. The delta is
    /// always verified exactly. Off by default: quantized serving is an
    /// explicit opt-in — exact oracle-equivalence tests and small indexes
    /// gain nothing from it.
    bool quantize = false;
    /// When non-empty, consolidation *spills*: survivors are streamed into a
    /// flat file under this directory (O(row) memory — the base set is never
    /// materialized on the heap) and the new epoch is a memory-mapped
    /// storage::MmapStore over it, unlinked automatically when the epoch is
    /// released. The disk-resident counterpart of the default heap epochs;
    /// required for mmap-backed indexes that must stay inside an RSS budget
    /// across consolidations. The directory must exist and be writable.
    std::string spill_dir;
  };

  DynamicIndex(Factory factory, Options options);
  /// Waits for an in-flight background rebuild (the task references this).
  ~DynamicIndex() override;

  // --- AnnIndex interface -------------------------------------------------

  /// Bulk load: the epoch snapshot *shares* the dataset's vector store
  /// (zero-copy — for a memory-mapped store the base set is never
  /// duplicated). The Dataset struct itself still need not outlive the
  /// index: the store is kept alive by the shared handle, and the handles
  /// are copy-on-write, so the caller mutating its dataset afterwards
  /// writes into a private clone — exactly the isolation the old deep copy
  /// provided. Points get ids 0..n-1; previous contents, delta, tombstones
  /// and the mutation version are discarded. Build(data, {0, ..., n-1}).
  void Build(const dataset::Dataset& data) override;

  /// Bulk load under caller-assigned ids: row i of `data` gets ids[i]. The
  /// ids must be one per row, non-negative and strictly ascending (the
  /// order every epoch, delta and merge relies on); the next id becomes
  /// ids.back() + 1, or 0 when there are no rows. This is how a
  /// serve::ShardedIndex shard holds global ids: any ascending subset of
  /// an id space is a valid id list. A bad list throws
  /// std::invalid_argument and changes no state.
  void Build(const dataset::Dataset& data, std::vector<int32_t> ids);

  /// k nearest surviving neighbors by true distance, global ids.
  /// Equivalent to AcquireSnapshot().Query(query, k).
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;

  /// Batched queries over one snapshot; identical to per-row Query by
  /// construction (see Snapshot::QueryBatch).
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override;

  /// Appends a dim()-dimensional vector under the next id and returns it
  /// (insert order, monotone). May trigger a background consolidation.
  int32_t Insert(const float* vec);

  /// Appends a dim()-dimensional vector under a caller-assigned `id`,
  /// which must be at least the next id; the next id becomes id + 1, so
  /// ids stay strictly ascending in insert order. An id below the next id
  /// (or INT32_MAX, whose successor does not exist) throws
  /// std::invalid_argument and changes no state.
  void Insert(const float* vec, int32_t id);

  /// Tombstones the point with global id `id`; returns false when the id
  /// was never assigned or is already deleted. O(log n): one binary search
  /// finds the row, whose stamp is set; the static epoch is not touched
  /// until the next consolidation. May trigger a background consolidation.
  bool Remove(int32_t id);

  size_t dim() const override;
  size_t IndexSizeBytes() const override;
  std::string name() const override;
  util::Metric metric() const;

  // --- MVCC snapshots -----------------------------------------------------

  /// O(1) immutable read view of the current state: pins the epoch, the
  /// delta buffer, the delta prefix and the mutation version under one
  /// reader-lock hold, then serves queries lock-free. Never blocks writers
  /// beyond the capture; holding the snapshot keeps its generation alive
  /// across any number of mutations and consolidations.
  Snapshot AcquireSnapshot() const;

  /// Mutations (Insert/Remove) applied so far; Build resets it to 0. The
  /// version a snapshot acquired now would carry.
  uint64_t version() const;

  // --- Mutation / epoch introspection ------------------------------------
  // Each reads one field of stats().

  size_t live_count() const;       ///< surviving points
  size_t epoch_size() const;       ///< rows in the static snapshot
  size_t delta_size() const;       ///< delta rows (live + tombstoned)
  size_t tombstone_count() const;  ///< tombstones not yet consolidated away
  uint64_t epoch_sequence() const; ///< consolidations completed so far
  bool Contains(int32_t id) const; ///< id assigned and not deleted

  /// One mutually-consistent snapshot of the counters above — what an
  /// external consolidation scheduler (serve::ShardedIndex::MaintainShards)
  /// keys its decisions on. Reading the individual accessors back-to-back
  /// can interleave with a mutation or an epoch install and yield an
  /// impossible combination (e.g. delta_rows past the threshold of an epoch
  /// that just absorbed it); this takes the reader lock once.
  struct Stats {
    size_t live = 0;            ///< surviving points
    size_t epoch_rows = 0;      ///< rows in the static snapshot
    size_t delta_rows = 0;      ///< delta rows (live + tombstoned)
    size_t tombstones = 0;      ///< tombstones not yet consolidated away
    /// Stamped epoch rows — removed since the install or while the epoch
    /// was being built. The over-fetch margin every snapshot query
    /// currently pays; consolidation drops these rows.
    size_t epoch_stamped = 0;
    uint64_t epoch_sequence = 0;
    uint64_t version = 0;       ///< mutations applied so far
    /// max(delta_rows, tombstones) >= Options::rebuild_threshold: the one
    /// rule of background_rebuild and serve::ShardedIndex::MaintainShards.
    bool consolidation_due = false;
    bool rebuild_in_flight = false;
  };
  Stats stats() const;

  /// True while a consolidation (background or synchronous) is running —
  /// the signal a scheduler uses to bound concurrent rebuilds across shards
  /// instead of stacking TriggerRebuild calls that would all be refused.
  bool rebuild_in_flight() const;

  /// Copies the surviving vectors in ascending global-id order; `ids`
  /// (optional) receives the matching global ids. Acquires a snapshot and
  /// copies its Snapshot::ForEachLive walk with no lock held. The oracle
  /// tests and eval::DynamicRecall build their exact reference over it.
  util::Matrix LiveVectors(std::vector<int32_t>* ids = nullptr) const;

  /// Starts a background consolidation on a dedicated thread if none is in
  /// flight; returns false when one already is (or there is nothing to
  /// consolidate). Queries and mutations proceed while it runs.
  bool TriggerRebuild();

  /// Synchronous consolidation: triggers a rebuild (or adopts the one in
  /// flight) and waits for it to finish.
  void Consolidate();

  /// Blocks until no rebuild is in flight. Rethrows the first exception a
  /// background rebuild died with (the error is cleared).
  void WaitForRebuild() const;

 private:
  /// Builds an EpochState over the store behind `rows` (global-id
  /// ascending) via the factory, every row unstamped. Static so
  /// the background task can run it without touching any member state.
  static std::shared_ptr<EpochState> BuildEpoch(const Factory& factory,
                                                util::Metric metric,
                                                size_t dim,
                                                storage::VectorStoreRef rows,
                                                std::vector<int32_t> ids,
                                                bool quantize);

  /// The one insert body: `id` is the caller's, or the next id when empty.
  int32_t InsertWithId(const float* vec, std::optional<int32_t> id);

  /// The stamp of the row holding `id`, or null when none does; `in_epoch`
  /// (optional) says which region. Caller must hold mutex_ (either mode).
  std::atomic<uint64_t>* FindStampLocked(int32_t id,
                                         bool* in_epoch = nullptr) const;
  /// Stats::consolidation_due; caller must hold mutex_ (either mode).
  bool ConsolidationDueLocked() const;

  /// Makes room for one more delta slot: allocates the first buffer, or
  /// clones into a doubled successor when full — the version-chain step
  /// that lets snapshots keep reading the retired buffer. Caller must hold
  /// the writer lock.
  void EnsureDeltaCapacityLocked();

  /// Claims the rebuild-in-flight flag; false if already claimed.
  bool ClaimRebuild();
  /// Spawns rebuild_thread_ running RunRebuild (joining the previous,
  /// already-finished thread first). Caller must have won ClaimRebuild.
  void LaunchRebuild();
  /// The consolidation pipeline: capture (a snapshot) -> build from its
  /// survivors (no lock) -> install (writer lock). Runs on rebuild_thread_
  /// or inline (Consolidate).
  void RunRebuild();
  void FinishRebuild(std::exception_ptr error);

  /// Reader lock with writer-starvation protection: pthread rwlocks (behind
  /// std::shared_mutex on glibc) admit new readers while a writer waits, so
  /// a steady query stream could park Insert/Remove/install forever. Writers
  /// hold gate_ while acquiring exclusivity; readers tap it first, so they
  /// queue up behind a pending writer instead of starving it.
  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock() const;

  Factory factory_;
  Options options_;

  /// Guards every field below. Queries / snapshot capture: shared (via
  /// ReadLock). Mutations + install: exclusive (via WriteLock). Tombstone
  /// stamps are additionally atomic because pinned snapshots read them with
  /// no lock held while later removes store new stamps.
  mutable std::shared_mutex mutex_;
  mutable std::mutex gate_;
  std::shared_ptr<EpochState> epoch_;
  std::shared_ptr<DeltaBuffer> delta_;  ///< current generation, may be null
  size_t delta_len_ = 0;                ///< used slots of delta_
  size_t survivors_ = 0;                ///< unstamped rows (live_count)
  int32_t next_id_ = 0;
  uint64_t version_ = 0;        ///< mutations applied (stamp source)
  size_t epoch_removed_ = 0;    ///< stamped epoch rows (Stats::epoch_stamped)
  uint64_t epoch_sequence_ = 0;

  /// Rebuild coordination. Never held while acquiring mutex_.
  mutable std::mutex rebuild_mutex_;
  mutable std::condition_variable rebuild_cv_;
  mutable bool rebuild_in_flight_ = false;
  mutable std::exception_ptr rebuild_error_;
  /// Background consolidation thread. Launched and joined under
  /// rebuild_mutex_ (LaunchRebuild); the destructor joins it lock-free
  /// after draining the claim, when no other caller may touch the object.
  std::thread rebuild_thread_;
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_DYNAMIC_INDEX_H_
