#ifndef LCCS_CORE_SNAPSHOT_H_
#define LCCS_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/ann_index.h"
#include "dataset/dataset.h"
#include "storage/vector_store.h"
#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace core {

/// One generation of a DynamicIndex's append-only delta region. The buffer
/// is the unit of the MVCC version chain: the writer appends new rows in
/// place while capacity lasts (readers only ever touch the prefix they
/// pinned, which the writer never rewrites), and on exhaustion it clones
/// into a larger buffer and publishes the clone — snapshots holding the old
/// shared_ptr keep reading the retired generation untouched. Rows and ids
/// are plain memory (immutable once written, ordered by the index rwlock);
/// tombstones are atomic version stamps because a concurrent Remove must be
/// visible to later snapshots while staying invisible to earlier ones. The
/// buffer holds float rows only: with or without the epoch's int8 tier,
/// snapshots verify every live slot exactly.
struct DeltaBuffer {
  DeltaBuffer(size_t capacity, size_t dim);

  size_t capacity = 0;
  size_t dim = 0;
  std::unique_ptr<float[]> rows;     ///< capacity x dim, slot-major
  std::unique_ptr<int32_t[]> ids;    ///< slot -> global id, ascending
  /// Slot -> version of the mutation that removed it; 0 = live. Read only
  /// through core::Snapshot's visibility rule.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
};

/// One consolidation generation of a DynamicIndex: the static snapshot the
/// wrapped AnnIndex was built over, plus one version stamp per row. The
/// wrapped index is immutable after Build and knows nothing about deletes;
/// core::Snapshot's visibility rule hides the removed rows. Rows removed
/// while the epoch was being built are stamped at install.
struct EpochState {
  dataset::Dataset data;           ///< snapshot (queries member unused)
  std::vector<int32_t> ids;        ///< row -> global id, strictly ascending
  /// Row -> version of the mutation that removed it; 0 = live. Read only
  /// through core::Snapshot's visibility rule.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
  std::unique_ptr<baselines::AnnIndex> index;  ///< null when no rows
};

/// An immutable, versioned read view of a DynamicIndex — the MVCC unit the
/// serving engine executes batching windows against. Acquiring one
/// (DynamicIndex::AcquireSnapshot) is O(1): it pins the epoch shared_ptr,
/// the current delta buffer shared_ptr, the delta prefix length and the
/// tombstone version, all captured under one reader-lock hold. Queries then
/// run with **no lock held** and never block writers; concurrent inserts
/// land beyond the pinned prefix (or in a successor buffer), concurrent
/// removes carry stamps above the pinned version, and an epoch rebuild
/// installing a new generation leaves the pinned shared_ptrs alive — so
/// every query over one Snapshot returns bit-identical results for as long
/// as the snapshot is held (the property
/// tests/test_dynamic_concurrency.cc races under TSAN).
///
/// Query semantics match DynamicIndex::Query at the acquisition point
/// exactly: top-k over (epoch ∪ delta prefix) ∖ {tombstones at or before
/// version()}, merged by (distance, global id). Stamped epoch rows are
/// filtered *post*-query: the wrapped index answers k + overfetch
/// (overfetch = stamped epoch rows at acquisition, at most the tombstones
/// one consolidation cycle accumulates), the stamped rows are dropped, and
/// the survivors truncated back to k — exact for the exhaustive
/// configurations the oracle tests replay.
class Snapshot {
 public:
  Snapshot() = default;

  /// k nearest surviving neighbors at version(), global ids. A one-row
  /// QueryBatch on the calling thread.
  std::vector<util::Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries: the epoch index answers the window through its own
  /// QueryBatch, then each row is filtered and merged with its delta scan.
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const;

  /// Calls fn(id, row) for every row visible at version(), in ascending
  /// global-id order: the epoch rows (read through storage::ScanRows, so a
  /// budgeted mmap epoch sees the sweep), then the pinned delta prefix.
  /// `row` points at the row's dim floats and stays valid while the
  /// snapshot is held. The one survivor walk: consolidation, LiveVectors
  /// and checkpoint capture all read the live set through it.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const size_t epoch_rows = epoch_ != nullptr ? epoch_->ids.size() : 0;
    if (epoch_rows > 0) {
      const EpochState& ep = *epoch_;
      storage::ScanRows(*ep.data.data.get(), 0, epoch_rows, [&](size_t r) {
        if (Visible(ep.deleted_at[r])) fn(ep.ids[r], ep.data.data.Row(r));
      });
    }
    for (size_t s = 0; s < delta_len_; ++s) {
      if (Visible(delta_->deleted_at[s])) {
        fn(delta_->ids[s], delta_->rows.get() + s * dim_);
      }
    }
  }

  /// Mutations (of the owning DynamicIndex) applied before acquisition.
  uint64_t version() const { return version_; }
  /// Consolidations completed before acquisition (test observability).
  uint64_t epoch_sequence() const { return epoch_sequence_; }
  /// Rows visible to this snapshot's delta scan.
  size_t delta_size() const { return delta_len_; }
  /// Rows visible at version(): the number ForEachLive visits.
  size_t live_count() const { return live_count_; }

 private:
  friend class DynamicIndex;

  /// The one visibility rule: a row is visible at version_ iff it is
  /// unstamped or was removed by a later mutation. The relaxed load is
  /// safe: stamps at or below version_ were published before the acquiring
  /// reader-lock hold, and later stamps only ever move a row from "live"
  /// to "dead above version_", both visible here.
  bool Visible(const std::atomic<uint64_t>& stamp) const {
    const uint64_t v = stamp.load(std::memory_order_relaxed);
    return v == 0 || v > version_;
  }

  /// Epoch results with invisible rows dropped and row ids remapped to
  /// global ids, truncated to k.
  std::vector<util::Neighbor> FilterEpoch(std::vector<util::Neighbor> stat,
                                          size_t k) const;
  /// Exact brute-force top-k over the live pinned delta prefix, global ids.
  /// QueryBatch gathers the slots surviving at version() into `live` once
  /// and reuses them for every query in the window (the stamps cannot
  /// change retroactively for a pinned version).
  std::vector<util::Neighbor> QueryDelta(const float* query, size_t k,
                                         const std::vector<int32_t>& live)
      const;

  std::shared_ptr<const EpochState> epoch_;
  std::shared_ptr<const DeltaBuffer> delta_;
  size_t delta_len_ = 0;       ///< pinned delta prefix (slots)
  size_t epoch_overfetch_ = 0; ///< epoch rows stamped at acquisition
  size_t live_count_ = 0;      ///< rows visible at version_
  uint64_t version_ = 0;
  uint64_t epoch_sequence_ = 0;
  util::Metric metric_ = util::Metric::kEuclidean;
  size_t dim_ = 0;
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_SNAPSHOT_H_
