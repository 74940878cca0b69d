#include "core/dynamic_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>

#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace core {

namespace {

/// First delta generation's capacity. Deliberately small and independent of
/// Options::rebuild_threshold (which tests set as high as 2^30 to disable
/// consolidation): generations double, so reaching a threshold of T costs
/// O(log T) clones and O(T) copied floats total.
constexpr size_t kInitialDeltaCapacity = 64;

/// Process-wide suffix for spill files, so concurrent rebuilds of several
/// indexes sharing one spill_dir never collide.
std::atomic<uint64_t> g_spill_counter{0};

/// The one way a delta generation is filled (doubling clone, rows left over
/// at an install): `capacity` slots holding copies of `count` rows and
/// ids. Every stamp starts at 0; callers set the ones their rows carry.
std::shared_ptr<DeltaBuffer> FillDelta(size_t capacity, size_t dim,
                                       const float* rows, const int32_t* ids,
                                       size_t count) {
  auto delta = std::make_shared<DeltaBuffer>(capacity, dim);
  if (count == 0) return delta;
  std::memcpy(delta->rows.get(), rows, count * dim * sizeof(float));
  std::memcpy(delta->ids.get(), ids, count * sizeof(int32_t));
  return delta;
}

}  // namespace

DynamicIndex::DynamicIndex(Factory factory, Options options)
    : factory_(std::move(factory)), options_(options) {
  assert(factory_ != nullptr);
}

DynamicIndex::~DynamicIndex() {
  // The background thread captures `this`; it must have drained before any
  // member is torn down. Errors are irrelevant during destruction.
  {
    std::unique_lock<std::mutex> lock(rebuild_mutex_);
    rebuild_cv_.wait(lock, [&] { return !rebuild_in_flight_; });
  }
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

std::shared_lock<std::shared_mutex> DynamicIndex::ReadLock() const {
  // Tap the gate: blocks here exactly while a writer is mid-acquisition,
  // guaranteeing that writer makes progress before more readers pile onto
  // the rwlock (glibc's reader-preferring default would otherwise let a
  // saturating query stream starve Insert/Remove/install forever).
  { std::lock_guard<std::mutex> gate(gate_); }
  return std::shared_lock<std::shared_mutex>(mutex_);
}

std::unique_lock<std::shared_mutex> DynamicIndex::WriteLock() const {
  // Holding the gate while waiting for exclusivity keeps new readers out;
  // the in-flight ones drain and the writer gets the lock. The gate is
  // released as soon as exclusivity is held (function exit), so readers
  // then queue on the rwlock itself.
  std::lock_guard<std::mutex> gate(gate_);
  return std::unique_lock<std::shared_mutex>(mutex_);
}

std::shared_ptr<EpochState> DynamicIndex::BuildEpoch(
    const Factory& factory, util::Metric metric, size_t dim,
    storage::VectorStoreRef rows, std::vector<int32_t> ids, bool quantize) {
  auto epoch = std::make_shared<EpochState>();
  epoch->data.name = "dynamic-epoch";
  epoch->data.metric = metric;
  epoch->data.data = std::move(rows);
  epoch->ids = std::move(ids);
  // Value-initialization zeroes the stamps: every row starts live.
  epoch->deleted_at.reset(new std::atomic<uint64_t>[epoch->ids.size()]());
  (void)dim;  // consulted only by the assert
  assert(epoch->ids.empty() || epoch->data.dim() == dim);
  if (!epoch->ids.empty()) {
    epoch->index = factory();
    epoch->index->Build(epoch->data);
    if (quantize) {
      // After the index build on purpose: building first lets the index
      // free its scratch before the codes (1 byte/dim/row) are allocated,
      // keeping peak RSS at max(build, serve) instead of their sum.
      storage::EnsureQuantized(epoch->data.data.store(), metric);
    }
  }
  return epoch;
}

void DynamicIndex::Build(const dataset::Dataset& data) {
  std::vector<int32_t> ids(data.n());
  std::iota(ids.begin(), ids.end(), 0);
  Build(data, std::move(ids));
}

void DynamicIndex::Build(const dataset::Dataset& data,
                         std::vector<int32_t> ids) {
  if (ids.size() != data.n()) {
    throw std::invalid_argument("DynamicIndex::Build: one id per row");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || (i > 0 && ids[i] <= ids[i - 1]) ||
        ids[i] == std::numeric_limits<int32_t>::max()) {
      throw std::invalid_argument(
          "DynamicIndex::Build: ids must be non-negative, strictly "
          "ascending and below INT32_MAX");
    }
  }
  // Claim the rebuild slot for the whole reset: a background consolidation
  // captured against the pre-Build state must never install over the new
  // contents (its delta_end would slice a cleared delta buffer, and its
  // epoch would resurrect retired ids).
  {
    std::unique_lock<std::mutex> lock(rebuild_mutex_);
    rebuild_cv_.wait(lock, [&] { return !rebuild_in_flight_; });
    rebuild_in_flight_ = true;
  }
  try {
    // Share the caller's store zero-copy (for a memory-mapped dataset the
    // base set is never duplicated). Copy-on-write isolation on the handle
    // means the caller's later writes land in a private clone, so the epoch
    // still behaves like an owned snapshot. A store that pins nothing (a
    // BorrowedStore wrapping a caller-managed buffer) is deep-copied
    // instead — this class promises the dataset need not outlive it.
    storage::VectorStoreRef rows = data.data;
    if (rows.get() != nullptr && !rows.get()->KeepsVectorsAlive()) {
      util::Matrix copy(rows.rows(), rows.cols());
      std::memcpy(copy.data(), rows.data(), rows.SizeBytes());
      rows = std::move(copy);
    }
    const int32_t next_id = ids.empty() ? 0 : ids.back() + 1;
    auto epoch = BuildEpoch(factory_, data.metric, data.dim(), std::move(rows),
                            std::move(ids), options_.quantize);

    auto lock = WriteLock();
    options_.metric = data.metric;
    options_.dim = data.dim();
    epoch_ = std::move(epoch);
    delta_.reset();
    delta_len_ = 0;
    survivors_ = epoch_->ids.size();
    next_id_ = next_id;
    version_ = 0;
    epoch_removed_ = 0;
    epoch_sequence_ = 0;
  } catch (...) {
    FinishRebuild(nullptr);
    throw;
  }
  FinishRebuild(nullptr);
}

size_t DynamicIndex::dim() const {
  auto lock = ReadLock();
  return options_.dim;
}

util::Metric DynamicIndex::metric() const {
  auto lock = ReadLock();
  return options_.metric;
}

std::string DynamicIndex::name() const {
  auto lock = ReadLock();
  if (epoch_ != nullptr && epoch_->index != nullptr) {
    return "Dynamic(" + epoch_->index->name() + ")";
  }
  return "Dynamic";
}

size_t DynamicIndex::IndexSizeBytes() const {
  auto lock = ReadLock();
  size_t bytes = 0;
  if (delta_ != nullptr) {
    bytes += delta_->capacity * (options_.dim * sizeof(float) +
                                 sizeof(int32_t) +
                                 sizeof(std::atomic<uint64_t>));
  }
  if (epoch_ != nullptr) {
    bytes += epoch_->data.SizeBytes() +
             epoch_->ids.size() *
                 (sizeof(int32_t) + sizeof(std::atomic<uint64_t>));
    if (epoch_->index != nullptr) bytes += epoch_->index->IndexSizeBytes();
  }
  return bytes;
}

size_t DynamicIndex::live_count() const { return stats().live; }
size_t DynamicIndex::epoch_size() const { return stats().epoch_rows; }
size_t DynamicIndex::delta_size() const { return stats().delta_rows; }
size_t DynamicIndex::tombstone_count() const { return stats().tombstones; }
uint64_t DynamicIndex::epoch_sequence() const {
  return stats().epoch_sequence;
}
uint64_t DynamicIndex::version() const { return stats().version; }

DynamicIndex::Stats DynamicIndex::stats() const {
  Stats out;
  {
    auto lock = ReadLock();
    out.live = survivors_;
    out.epoch_rows = epoch_ != nullptr ? epoch_->ids.size() : 0;
    out.delta_rows = delta_len_;
    out.tombstones = out.epoch_rows + out.delta_rows - out.live;
    out.epoch_stamped = epoch_removed_;
    out.epoch_sequence = epoch_sequence_;
    out.version = version_;
    out.consolidation_due = ConsolidationDueLocked();
  }
  // The rebuild flag lives under its own mutex by design (never held while
  // acquiring mutex_); sampled after the counters, so a scheduler that sees
  // rebuild_in_flight == false knows the counters predate any later claim.
  {
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    out.rebuild_in_flight = rebuild_in_flight_;
  }
  return out;
}

bool DynamicIndex::rebuild_in_flight() const {
  std::lock_guard<std::mutex> lock(rebuild_mutex_);
  return rebuild_in_flight_;
}

bool DynamicIndex::ConsolidationDueLocked() const {
  const size_t rows =
      delta_len_ + (epoch_ != nullptr ? epoch_->ids.size() : 0);
  return std::max(delta_len_, rows - survivors_) >=
         options_.rebuild_threshold;
}

std::atomic<uint64_t>* DynamicIndex::FindStampLocked(int32_t id,
                                                     bool* in_epoch) const {
  // Every epoch id is below every delta id, so the first delta id picks the
  // region; each region's ids ascend.
  const bool delta = delta_len_ > 0 && id >= delta_->ids[0];
  if (!delta && epoch_ == nullptr) return nullptr;
  const int32_t* begin = delta ? delta_->ids.get() : epoch_->ids.data();
  const int32_t* end = begin + (delta ? delta_len_ : epoch_->ids.size());
  const int32_t* it = std::lower_bound(begin, end, id);
  if (it == end || *it != id) return nullptr;
  if (in_epoch != nullptr) *in_epoch = !delta;
  const size_t pos = static_cast<size_t>(it - begin);
  return delta ? &delta_->deleted_at[pos] : &epoch_->deleted_at[pos];
}

bool DynamicIndex::Contains(int32_t id) const {
  auto lock = ReadLock();
  const std::atomic<uint64_t>* stamp = FindStampLocked(id);
  return stamp != nullptr && stamp->load(std::memory_order_relaxed) == 0;
}

util::Matrix DynamicIndex::LiveVectors(std::vector<int32_t>* ids) const {
  const Snapshot snap = AcquireSnapshot();
  util::Matrix out(snap.live_count(), snap.dim_);
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(snap.live_count());
  }
  size_t row = 0;
  snap.ForEachLive([&](int32_t id, const float* vec) {
    std::memcpy(out.Row(row++), vec, snap.dim_ * sizeof(float));
    if (ids != nullptr) ids->push_back(id);
  });
  assert(row == out.rows());
  return out;
}

void DynamicIndex::EnsureDeltaCapacityLocked() {
  if (delta_ != nullptr && delta_len_ < delta_->capacity) return;
  const size_t d = options_.dim;
  const size_t capacity =
      delta_ == nullptr ? kInitialDeltaCapacity
                        : std::max(kInitialDeltaCapacity, delta_->capacity * 2);
  if (delta_ == nullptr) {
    delta_ = std::make_shared<DeltaBuffer>(capacity, d);
    return;
  }
  // Clone the used prefix into a grown buffer; snapshots pinning the old
  // generation keep reading it untouched. Slots keep their indices, and
  // stamps transfer verbatim — they are versions, not flags, so visibility
  // at any pinned version is preserved.
  auto grown = FillDelta(capacity, d, delta_->rows.get(), delta_->ids.get(),
                         delta_len_);
  for (size_t s = 0; s < delta_len_; ++s) {
    grown->deleted_at[s].store(
        delta_->deleted_at[s].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  delta_ = std::move(grown);
}

int32_t DynamicIndex::Insert(const float* vec) {
  return InsertWithId(vec, std::nullopt);
}

void DynamicIndex::Insert(const float* vec, int32_t id) {
  InsertWithId(vec, id);
}

int32_t DynamicIndex::InsertWithId(const float* vec,
                                   std::optional<int32_t> requested) {
  bool schedule = false;
  int32_t id = 0;
  {
    auto lock = WriteLock();
    if (options_.dim == 0) {
      throw std::runtime_error(
          "DynamicIndex: set Options::dim or Build before Insert");
    }
    id = requested.value_or(next_id_);
    if (id < next_id_ || id == std::numeric_limits<int32_t>::max()) {
      throw std::invalid_argument(
          "DynamicIndex::Insert: id " + std::to_string(id) +
          " is below the next id " + std::to_string(next_id_) +
          " or has no successor");
    }
    EnsureDeltaCapacityLocked();
    next_id_ = id + 1;
    const size_t slot = delta_len_;
    // Slots at or past every pinned prefix length: concurrent snapshot
    // readers never touch this memory, so the plain writes are race-free.
    std::memcpy(delta_->rows.get() + slot * options_.dim, vec,
                options_.dim * sizeof(float));
    delta_->ids[slot] = id;
    ++delta_len_;
    ++version_;
    ++survivors_;
    schedule = options_.background_rebuild && ConsolidationDueLocked();
  }
  if (schedule && ClaimRebuild()) LaunchRebuild();
  return id;
}

bool DynamicIndex::Remove(int32_t id) {
  bool schedule = false;
  {
    auto lock = WriteLock();
    bool in_epoch = false;
    std::atomic<uint64_t>* stamp = FindStampLocked(id, &in_epoch);
    if (stamp == nullptr || stamp->load(std::memory_order_relaxed) != 0) {
      return false;
    }
    ++version_;
    // Stamp, don't flip a bit: snapshots pinned at earlier versions keep
    // seeing the row, snapshots at or after version_ filter it. The store
    // is atomic because pinned snapshots read stamps with no lock held.
    stamp->store(version_, std::memory_order_relaxed);
    if (in_epoch) ++epoch_removed_;
    --survivors_;
    schedule = options_.background_rebuild && ConsolidationDueLocked();
  }
  if (schedule && ClaimRebuild()) LaunchRebuild();
  return true;
}

Snapshot DynamicIndex::AcquireSnapshot() const {
  auto lock = ReadLock();
  Snapshot snap;
  snap.epoch_ = epoch_;
  snap.delta_ = delta_;
  snap.delta_len_ = delta_len_;
  // Every stamp at or below version_ is on an epoch row already counted in
  // epoch_removed_, so over-fetching by it guarantees k survivors.
  snap.epoch_overfetch_ = epoch_removed_;
  snap.live_count_ = survivors_;
  snap.version_ = version_;
  snap.epoch_sequence_ = epoch_sequence_;
  snap.metric_ = options_.metric;
  snap.dim_ = options_.dim;
  return snap;
}

std::vector<util::Neighbor> DynamicIndex::Query(const float* query,
                                                size_t k) const {
  // One-shot snapshot: same linearization point as the old
  // hold-the-reader-lock query, with the lock held only for the capture.
  return AcquireSnapshot().Query(query, k);
}

std::vector<std::vector<util::Neighbor>> DynamicIndex::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  return AcquireSnapshot().QueryBatch(queries, num_queries, k, num_threads);
}

bool DynamicIndex::ClaimRebuild() {
  std::lock_guard<std::mutex> lock(rebuild_mutex_);
  if (rebuild_in_flight_) return false;
  rebuild_in_flight_ = true;
  return true;
}

void DynamicIndex::LaunchRebuild() {
  // A dedicated thread, NOT a pool task: the pool has no fire-and-forget
  // entry (every ParallelFor blocks its caller until the range is done),
  // and RunRebuild blocks on mutex_ (shared at capture, exclusive at
  // install), which would park a pool worker behind the writers.
  std::lock_guard<std::mutex> lock(rebuild_mutex_);
  // The previous rebuild thread, if any, has already run FinishRebuild (the
  // caller won ClaimRebuild, so rebuild_in_flight_ was observed false) and
  // is at most a few instructions from exiting; joining it here reclaims
  // the handle without waiting on real work.
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  // Assigning under rebuild_mutex_ closes a startup race: the new thread
  // cannot complete FinishRebuild (which needs this mutex) until the handle
  // is installed, so the next claimant's join above always sees it.
  try {
    rebuild_thread_ = std::thread([this] { RunRebuild(); });
  } catch (...) {
    // Thread creation failed (resource exhaustion). Release the claim
    // inline — FinishRebuild would re-lock rebuild_mutex_ — or it would
    // stay set forever, wedging Consolidate and the destructor. The caller
    // mutation already succeeded, so park the error like any other
    // background-rebuild failure; WaitForRebuild surfaces it.
    rebuild_in_flight_ = false;
    rebuild_error_ = std::current_exception();
    rebuild_cv_.notify_all();
  }
}

void DynamicIndex::FinishRebuild(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(rebuild_mutex_);
  rebuild_in_flight_ = false;
  if (error) rebuild_error_ = error;
  // Notify *while holding the mutex*: the destructor destroys this
  // condition variable the moment its predicate-protected wait returns,
  // which the mutex forbids until this broadcast has completed — notifying
  // after unlock would let the pool thread broadcast into freed memory.
  rebuild_cv_.notify_all();
}

void DynamicIndex::RunRebuild() {
  try {
    // Capture: an ordinary snapshot, pinning the epoch, the delta buffer,
    // its used prefix and the version in O(1) under the reader lock —
    // never the floats themselves. The survivors are then materialized
    // from the pinned stores with no lock held; for a memory-mapped epoch
    // this is the difference between consolidation costing O(delta) heap
    // and costing the whole base set. ForEachLive is the one survivor walk
    // for both sinks below, so the spill and heap epochs can never diverge
    // in ordering or tombstone handling (the equivalence the spill-vs-heap
    // test protects).
    const Snapshot snap = AcquireSnapshot();
    const size_t d = options_.dim;
    std::vector<int32_t> ids;
    ids.reserve(snap.live_count());
    storage::VectorStoreRef rows;
    if (!options_.spill_dir.empty()) {
      // Spill: stream survivors into a flat file (O(row) memory) and map it
      // back. The MmapStore unlinks the file when the epoch is released, so
      // retired generations clean up after themselves. No checksum pass on
      // open — this process just wrote the bytes.
      // PID + per-process counter: several processes may share one
      // spill_dir, and a name collision would truncate a flat file another
      // process is actively serving from.
      const std::string path =
          options_.spill_dir + "/lccs-epoch-" + std::to_string(::getpid()) +
          "-" + std::to_string(g_spill_counter.fetch_add(1)) + ".flat";
      storage::FlatFileWriter writer(path, d);
      snap.ForEachLive([&](int32_t id, const float* vec) {
        writer.AppendRow(vec);
        ids.push_back(id);
      });
      writer.Finish();
      storage::MmapStore::Options open_options;
      open_options.verify_checksum = false;
      open_options.unlink_on_close = true;
      try {
        rows = storage::MmapStore::Open(path, open_options);
      } catch (...) {
        // unlink_on_close only guards the file once a store owns it; a
        // failed Open (fd exhaustion, ENOMEM) must not leave an orphaned
        // epoch-sized file behind on a long-running server.
        std::remove(path.c_str());
        throw;
      }
    } else {
      util::Matrix heap_rows(snap.live_count(), d);
      size_t row = 0;
      snap.ForEachLive([&](int32_t id, const float* vec) {
        std::memcpy(heap_rows.Row(row++), vec, d * sizeof(float));
        ids.push_back(id);
      });
      assert(row == heap_rows.rows());
      rows = std::move(heap_rows);
    }
    // Build: the expensive part — hashing + CSA construction — runs with no
    // lock held, from the immutable capture. Old epoch keeps serving, and
    // snapshots acquired before the install below stay pinned to it.
    auto epoch = BuildEpoch(factory_, options_.metric, options_.dim,
                            std::move(rows), std::move(ids),
                            options_.quantize);

    // Install: reconcile mutations that raced the build, then swap.
    {
      auto lock = WriteLock();
      // Rows removed since capture are baked into the new static structure;
      // stamp them with the current version. No snapshot older than this
      // install can ever see the new epoch, so the original remove versions
      // are not needed. The captured survivors are the rows the capture
      // sees as visible, walked in ForEachLive's order; reading each source
      // row's stamp now still tells them apart, since a stamp written after
      // the capture lies above its version. The old epoch is still epoch_
      // (installs and Build hold the rebuild claim), and a doubling during
      // the build copied slots to the same indices of the current delta
      // generation, which holds the stamps written since.
      assert(epoch_ == snap.epoch_ &&
             (snap.delta_len_ == 0 || delta_ != nullptr));
      size_t row = 0;
      size_t reconciled = 0;
      const auto reconcile = [&](const std::atomic<uint64_t>& source) {
        if (!snap.Visible(source)) return;
        if (source.load(std::memory_order_relaxed) != 0) {
          epoch->deleted_at[row].store(version_, std::memory_order_relaxed);
          ++reconciled;
        }
        ++row;
      };
      const size_t epoch_rows = epoch_ != nullptr ? epoch_->ids.size() : 0;
      for (size_t r = 0; r < epoch_rows; ++r) reconcile(epoch_->deleted_at[r]);
      const size_t delta_end = snap.delta_len_;
      for (size_t s = 0; s < delta_end; ++s) reconcile(delta_->deleted_at[s]);
      assert(row == epoch->ids.size());
      // Inserts since capture become the new delta generation, copied from
      // the current buffer with their stamps verbatim — every stamp is at
      // most version_, hence visible-as-dead to all future snapshots, like
      // the epoch stamps above.
      const size_t leftover = delta_len_ - delta_end;
      std::shared_ptr<DeltaBuffer> fresh;
      if (leftover > 0) {
        fresh = FillDelta(std::max(kInitialDeltaCapacity, 2 * leftover), d,
                          delta_->rows.get() + delta_end * d,
                          delta_->ids.get() + delta_end, leftover);
        for (size_t s = 0; s < leftover; ++s) {
          fresh->deleted_at[s].store(
              delta_->deleted_at[delta_end + s].load(
                  std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
      }
      delta_ = std::move(fresh);
      delta_len_ = leftover;
      epoch_ = std::move(epoch);
      epoch_removed_ = reconciled;
      ++epoch_sequence_;
    }
    FinishRebuild(nullptr);
  } catch (...) {
    // An exception escaping the background thread would std::terminate;
    // park the error for WaitForRebuild instead.
    FinishRebuild(std::current_exception());
  }
  // A rebuild retires a whole epoch (rows, hash strings, CSA arrays: tens
  // of MB a shard), but glibc keeps freed heap pages mapped, so resident
  // memory would ratchet up with every consolidation. Return them.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

bool DynamicIndex::TriggerRebuild() {
  {
    auto lock = ReadLock();
    if (delta_len_ == 0 && (epoch_ == nullptr || epoch_->ids.empty())) {
      return false;
    }
  }
  if (!ClaimRebuild()) return false;
  LaunchRebuild();
  return true;
}

void DynamicIndex::Consolidate() {
  // Always run a rebuild of our own rather than adopting one already in
  // flight: an in-flight rebuild captured its survivors before this call,
  // so mutations between its capture and now would stay unconsolidated.
  // Claiming after the wait can race another claimant — just retry.
  while (!ClaimRebuild()) {
    WaitForRebuild();
  }
  RunRebuild();
  WaitForRebuild();
}

void DynamicIndex::WaitForRebuild() const {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(rebuild_mutex_);
    rebuild_cv_.wait(lock, [&] { return !rebuild_in_flight_; });
    std::swap(error, rebuild_error_);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace core
}  // namespace lccs
