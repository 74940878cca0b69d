#include "core/dynamic_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include <atomic>

#include "core/stream_io.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace core {

namespace {

// Version 3: a has-quantized-codebook byte (and, when set, the codebook
// itself — codes are re-encoded from the floats at load) follows the epoch
// index payload. Version 2 added the epoch-storage-kind byte after the row
// count (inline floats vs a path + checksum reference to a flat file).
constexpr char kStateMagic[8] = {'L', 'C', 'C', 'S', 'D', 'Y', 'N', '3'};
constexpr char kStreamName[] = "dynamic index stream";

// Epoch storage kinds of the state stream.
constexpr uint8_t kEpochInline = 0;    ///< floats embedded in the stream
constexpr uint8_t kEpochExternal = 1;  ///< path + checksum of a flat file

/// First delta generation's capacity. Deliberately small and independent of
/// Options::rebuild_threshold (which tests set as high as 2^30 to disable
/// consolidation): generations double, so reaching a threshold of T costs
/// O(log T) clones and O(T) copied floats total.
constexpr size_t kInitialDeltaCapacity = 64;

/// Process-wide suffix for spill files, so concurrent rebuilds of several
/// indexes sharing one spill_dir never collide.
std::atomic<uint64_t> g_spill_counter{0};

using io::ReadSizedVec;
using io::ReadVec;
using io::WritePod;
using io::WriteVec;

template <typename T>
void ReadPod(std::istream& in, T* value) {
  io::ReadPod(in, value, kStreamName);
}

/// The codebook a new delta generation adopts from `epoch` when quantizing,
/// so delta rows score under the codebook of the epoch beside them.
std::shared_ptr<const storage::QuantizedStore> EpochCodebook(
    bool quantize, const EpochState* epoch) {
  if (!quantize || epoch == nullptr || epoch->data.data.store() == nullptr) {
    return nullptr;
  }
  return epoch->data.data.store()->QuantizedShared();
}

/// The one way a delta generation is filled (doubling clone, rows left over
/// at an install, load): `capacity` slots holding copies of `count` rows and
/// ids, encoded under `codebook` if set — EncodeRow is deterministic, so
/// under the same codebook these are the source's code bytes. Every stamp
/// starts at 0; callers set the ones their rows carry.
std::shared_ptr<DeltaBuffer> FillDelta(
    size_t capacity, size_t dim,
    std::shared_ptr<const storage::QuantizedStore> codebook,
    const float* rows, const int32_t* ids, size_t count) {
  auto delta =
      std::make_shared<DeltaBuffer>(capacity, dim, std::move(codebook));
  if (count == 0) return delta;
  std::memcpy(delta->rows.get(), rows, count * dim * sizeof(float));
  std::memcpy(delta->ids.get(), ids, count * sizeof(int32_t));
  if (delta->codebook != nullptr) {
    for (size_t s = 0; s < count; ++s) {
      delta->codebook->EncodeRow(delta->rows.get() + s * dim,
                                 delta->codes.get() + s * dim,
                                 &delta->terms[s]);
    }
  }
  return delta;
}

// Header-derived allocations below are capped by io::RemainingBytes, so a
// corrupt header that passes the range checks (next_id up to INT32_MAX, dim
// up to 2^24 — a legal combination ~2^55 elements large) still cannot drive
// a resize beyond what the stream could possibly back, surfacing as the
// corrupt-stream runtime_error instead of bad_alloc.
using io::RemainingBytes;

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
  auto lock = ReadLock();
  return LiveVectorsLocked(ids);
}

util::Matrix DynamicIndex::LiveVectorsLocked(std::vector<int32_t>* ids) const {
  const size_t d = options_.dim;
  util::Matrix out(survivors_, d);
  if (ids != nullptr) ids->clear();
  size_t row = 0;
  auto append = [&](int32_t id, const float* vec) {
    std::memcpy(out.Row(row), vec, d * sizeof(float));
    if (ids != nullptr) ids->push_back(id);
    ++row;
  };
  // Epoch ids all precede delta ids, and both regions are stored ascending,
  // so this sweep emits global-id order without sorting. A row is live iff
  // unstamped. Const access only: a non-const Row() on the shared epoch
  // handle would trigger its copy-on-write clone.
  if (epoch_ != nullptr) {
    const EpochState& ep = *epoch_;
    for (size_t r = 0; r < ep.ids.size(); ++r) {
      if (ep.deleted_at[r].load(std::memory_order_relaxed) != 0) continue;
      append(ep.ids[r], ep.data.data.Row(r));
    }
  }
  for (size_t s = 0; s < delta_len_; ++s) {
    if (delta_->deleted_at[s].load(std::memory_order_relaxed) != 0) continue;
    append(delta_->ids[s], delta_->rows.get() + s * d);
  }
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
    delta_ = std::make_shared<DeltaBuffer>(
        capacity, d, EpochCodebook(options_.quantize, epoch_.get()));
    return;
  }
  // Clone the used prefix into a grown buffer under the same codebook;
  // snapshots pinning the old generation keep reading it untouched. Slots
  // keep their indices, and stamps transfer verbatim — they are versions,
  // not flags, so visibility at any pinned version is preserved.
  auto grown = FillDelta(capacity, d, delta_->codebook, delta_->rows.get(),
                         delta_->ids.get(), delta_len_);
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
    if (delta_->codebook != nullptr) {
      delta_->codebook->EncodeRow(vec,
                                  delta_->codes.get() + slot * options_.dim,
                                  &delta_->terms[slot]);
    }
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

Snapshot DynamicIndex::AcquireSnapshotLocked() const {
  Snapshot snap;
  snap.epoch_ = epoch_;
  snap.delta_ = delta_;
  snap.delta_len_ = delta_len_;
  // Every stamp at or below version_ is on an epoch row already counted in
  // epoch_removed_, so over-fetching by it guarantees k survivors.
  snap.epoch_overfetch_ = epoch_removed_;
  snap.version_ = version_;
  snap.epoch_sequence_ = epoch_sequence_;
  snap.metric_ = options_.metric;
  snap.dim_ = options_.dim;
  return snap;
}

Snapshot DynamicIndex::AcquireSnapshot() const {
  auto lock = ReadLock();
  return AcquireSnapshotLocked();
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
  // A dedicated thread, NOT a pool task: RunRebuild blocks on mutex_
  // (shared at capture, exclusive at install), and queued pool tasks may be
  // stolen by any thread helping to drain a ParallelRange — including a
  // QueryBatch caller already holding mutex_ in shared mode, which would
  // then recursively re-acquire the shared lock and self-deadlock waiting
  // for exclusivity.
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
    // Capture under the reader lock: the epoch shared_ptr, the delta buffer
    // shared_ptr, the used prefix length, and which rows of both regions
    // are stamped as of now — never the floats themselves. Both stores
    // are immutable over the captured range (rows are written before the
    // releasing writer unlock that happens-before this reader lock) and
    // kept alive by the shared_ptrs, so the heavy survivor materialization
    // below runs with no lock held; for a memory-mapped epoch this is the
    // difference between consolidation costing O(delta) heap and costing
    // the whole base set. Writers wait only for the O(rows) stamp reads.
    std::shared_ptr<const EpochState> old_epoch;
    std::shared_ptr<const DeltaBuffer> old_delta;
    std::vector<uint8_t> epoch_dead;
    std::vector<uint8_t> delta_dead;
    size_t delta_end = 0;
    const size_t d = options_.dim;
    {
      auto lock = ReadLock();
      old_epoch = epoch_;
      if (old_epoch != nullptr) {
        epoch_dead.resize(old_epoch->ids.size());
        for (size_t r = 0; r < epoch_dead.size(); ++r) {
          epoch_dead[r] =
              old_epoch->deleted_at[r].load(std::memory_order_relaxed) != 0;
        }
      }
      old_delta = delta_;
      delta_end = delta_len_;
      delta_dead.resize(delta_end);
      for (size_t s = 0; s < delta_end; ++s) {
        delta_dead[s] =
            old_delta->deleted_at[s].load(std::memory_order_relaxed) != 0;
      }
    }

    // Survivors, in ascending global-id order (epoch ids all precede delta
    // ids; both regions are stored ascending).
    std::vector<int32_t> ids;
    storage::VectorStoreRef rows;
    const EpochState* ep = old_epoch.get();
    const size_t epoch_rows = ep != nullptr ? ep->ids.size() : 0;
    size_t live = 0;
    for (size_t r = 0; r < epoch_rows; ++r) live += epoch_dead[r] ? 0 : 1;
    for (size_t s = 0; s < delta_end; ++s) live += delta_dead[s] ? 0 : 1;
    ids.reserve(live);
    // One survivor sweep for both sinks below, so the spill and heap
    // epochs can never diverge in ordering or tombstone handling (the
    // equivalence the spill-vs-heap test protects). ScanRows, not a bare
    // loop: the old epoch may itself be a budgeted mmap store, and this
    // full sweep is exactly the scan the residency clock (and read-ahead)
    // must see.
    const auto sweep_survivors = [&](auto&& sink) {
      if (epoch_rows > 0) {
        storage::ScanRows(*ep->data.data.get(), 0, epoch_rows, [&](size_t r) {
          if (!epoch_dead[r]) sink(ep->ids[r], ep->data.data.Row(r));
        });
      }
      for (size_t s = 0; s < delta_end; ++s) {
        if (!delta_dead[s]) {
          sink(old_delta->ids[s], old_delta->rows.get() + s * d);
        }
      }
    };
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
      sweep_survivors([&](int32_t id, const float* vec) {
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
      util::Matrix heap_rows(live, d);
      size_t row = 0;
      sweep_survivors([&](int32_t id, const float* vec) {
        std::memcpy(heap_rows.Row(row++), vec, d * sizeof(float));
        ids.push_back(id);
      });
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
      // are not needed. Walk the captured survivors in the sweep's order,
      // reading each source row's stamp now: the old epoch is still epoch_
      // (installs and Build hold the rebuild claim), and a doubling during
      // the build copied slots to the same indices of the current delta
      // generation, which holds the stamps written since.
      assert(epoch_.get() == ep && (delta_end == 0 || delta_ != nullptr));
      size_t row = 0;
      size_t reconciled = 0;
      const auto reconcile = [&](const std::atomic<uint64_t>& source) {
        if (source.load(std::memory_order_relaxed) != 0) {
          epoch->deleted_at[row].store(version_, std::memory_order_relaxed);
          ++reconciled;
        }
        ++row;
      };
      for (size_t r = 0; r < epoch_rows; ++r) {
        if (!epoch_dead[r]) reconcile(epoch_->deleted_at[r]);
      }
      for (size_t s = 0; s < delta_end; ++s) {
        if (!delta_dead[s]) reconcile(delta_->deleted_at[s]);
      }
      assert(row == epoch->ids.size());
      // Inserts since capture become the new delta generation, copied from
      // the current buffer with their stamps verbatim — every stamp is at
      // most version_, hence visible-as-dead to all future snapshots, like
      // the epoch stamps above. It adopts the *new* epoch's codebook
      // (min/max ranges moved with the consolidated points), so the rows
      // are encoded afresh under it.
      const size_t leftover = delta_len_ - delta_end;
      std::shared_ptr<DeltaBuffer> fresh;
      if (leftover > 0) {
        fresh = FillDelta(std::max(kInitialDeltaCapacity, 2 * leftover), d,
                          EpochCodebook(options_.quantize, epoch.get()),
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

void DynamicIndex::SerializeState(std::ostream& out, const EpochWriter& writer,
                                  bool external_vectors) const {
  auto lock = ReadLock();
  out.write(kStateMagic, sizeof(kStateMagic));
  WritePod(out, static_cast<uint32_t>(options_.metric));
  WritePod(out, static_cast<uint64_t>(options_.dim));
  WritePod(out, static_cast<int64_t>(next_id_));
  WritePod(out, epoch_sequence_);

  const uint64_t epoch_rows = epoch_ != nullptr ? epoch_->ids.size() : 0;
  WritePod(out, epoch_rows);
  if (epoch_rows > 0) {
    if (external_vectors) {
      // Out-of-line mode: record where the epoch floats live instead of
      // inlining half a gigabyte of them — path, checksum (revalidated at
      // load against the file's own header) and this epoch's first row
      // inside the file (a sharded or sliced epoch need not start at 0).
      size_t row_offset = 0;
      const storage::MmapStore* backing =
          epoch_->data.data.store()->BackingMmap(&row_offset);
      if (backing == nullptr) {
        throw std::invalid_argument(
            "SerializeState: external_vectors requires an mmap-backed "
            "epoch (got " + epoch_->data.data.store()->DebugName() + ")");
      }
      if (backing->unlink_on_close()) {
        // A spill epoch's flat file is unlinked the moment the epoch is
        // replaced or the index destroyed — recording its path would
        // produce a save that silently stops loading. Fail now instead.
        throw std::invalid_argument(
            "SerializeState: external_vectors cannot reference the "
            "self-deleting spill file " + backing->path() +
            "; consolidate to a persistent flat file or save inline");
      }
      WritePod(out, kEpochExternal);
      const std::string& path = backing->path();
      WritePod(out, static_cast<uint64_t>(path.size()));
      out.write(path.data(), static_cast<std::streamsize>(path.size()));
      WritePod(out, backing->checksum());
      WritePod(out, static_cast<uint64_t>(row_offset));
    } else {
      WritePod(out, kEpochInline);
      out.write(reinterpret_cast<const char*>(epoch_->data.data.data()),
                epoch_rows * options_.dim * sizeof(float));
    }
    out.write(reinterpret_cast<const char*>(epoch_->ids.data()),
              epoch_rows * sizeof(int32_t));
    // Version stamps collapse into dead bytes: the stream format is a
    // point-in-time save, and every stamp at save time is at or below the
    // version any post-load snapshot will carry.
    std::vector<uint8_t> epoch_dead(epoch_rows);
    for (size_t r = 0; r < epoch_rows; ++r) {
      epoch_dead[r] =
          epoch_->deleted_at[r].load(std::memory_order_relaxed) != 0;
    }
    out.write(reinterpret_cast<const char*>(epoch_dead.data()), epoch_rows);
    const uint8_t has_index = epoch_->index != nullptr ? 1 : 0;
    WritePod(out, has_index);
    if (has_index) writer(out, *epoch_->index);
    // Quantized tier: only the codebook is persisted — codes are a pure
    // function of (floats, codebook) and re-encode deterministically at
    // load, so the save stays small and a corrupt-code class of failures
    // cannot exist. QuantizedShared, not ActiveQuantized: the save needs an
    // owning handle to the attachment itself.
    std::shared_ptr<const storage::QuantizedStore> quantized =
        epoch_->data.data.store() != nullptr
            ? epoch_->data.data.store()->QuantizedShared()
            : nullptr;
    const uint8_t has_quantized = quantized != nullptr ? 1 : 0;
    WritePod(out, has_quantized);
    if (has_quantized) quantized->SerializeCodebook(out);
  }

  // Delta region, same flattened layout as the vectors it replaced.
  std::vector<float> delta_rows(delta_len_ * options_.dim);
  std::vector<int32_t> delta_ids(delta_len_);
  std::vector<uint8_t> delta_dead(delta_len_);
  if (delta_len_ > 0) {
    std::memcpy(delta_rows.data(), delta_->rows.get(),
                delta_rows.size() * sizeof(float));
    std::memcpy(delta_ids.data(), delta_->ids.get(),
                delta_len_ * sizeof(int32_t));
    for (size_t s = 0; s < delta_len_; ++s) {
      delta_dead[s] =
          delta_->deleted_at[s].load(std::memory_order_relaxed) != 0;
    }
  }
  WriteVec(out, delta_rows);
  WriteVec(out, delta_ids);
  WriteVec(out, delta_dead);
  if (!out) throw std::runtime_error("dynamic index write error");
}

std::unique_ptr<DynamicIndex> DynamicIndex::DeserializeState(
    std::istream& in, Factory factory, Options options,
    const EpochReader& reader) {
  char magic[sizeof(kStateMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kStateMagic)) {
    throw std::runtime_error("not an LCCS dynamic index stream");
  }
  uint32_t metric = 0;
  uint64_t dim = 0, epoch_sequence = 0;
  int64_t next_id = 0;
  ReadPod(in, &metric);
  ReadPod(in, &dim);
  ReadPod(in, &next_id);
  ReadPod(in, &epoch_sequence);
  if (dim == 0 || dim > (uint64_t{1} << 24) || next_id < 0 ||
      next_id > std::numeric_limits<int32_t>::max() ||
      metric > static_cast<uint32_t>(util::Metric::kJaccard)) {
    throw std::runtime_error("dynamic index stream corrupt: bad header");
  }
  options.metric = static_cast<util::Metric>(metric);
  options.dim = dim;

  auto index =
      std::make_unique<DynamicIndex>(std::move(factory), options);
  index->next_id_ = static_cast<int32_t>(next_id);
  index->epoch_sequence_ = epoch_sequence;

  uint64_t epoch_rows = 0;
  ReadPod(in, &epoch_rows);
  if (epoch_rows > static_cast<uint64_t>(next_id)) {
    throw std::runtime_error(
        "dynamic index stream corrupt: epoch larger than id space");
  }
  auto epoch = std::make_shared<EpochState>();
  epoch->data.name = "dynamic-epoch";
  epoch->data.metric = options.metric;
  std::vector<uint8_t> epoch_dead;
  if (epoch_rows > 0) {
    uint8_t storage_kind = 0;
    ReadPod(in, &storage_kind);
    if (storage_kind != kEpochInline && storage_kind != kEpochExternal) {
      throw std::runtime_error(
          "dynamic index stream corrupt: unknown epoch storage kind");
    }
    // dim <= 2^24 and epoch_rows <= 2^31, so these products cannot
    // overflow. The inline kind must additionally back its floats.
    const uint64_t epoch_bytes =
        epoch_rows * (sizeof(int32_t) + 1) +
        (storage_kind == kEpochInline ? epoch_rows * dim * sizeof(float) : 0);
    if (epoch_bytes > RemainingBytes(in)) {
      throw std::runtime_error(
          "dynamic index stream corrupt: epoch larger than stream");
    }
    if (storage_kind == kEpochExternal) {
      // Out-of-line epoch: re-map the recorded flat file and hold the
      // stream to its promises — the file must still match the checksum
      // recorded at save time, and the recorded row range must exist.
      uint64_t path_len = 0, checksum = 0, row_offset = 0;
      ReadPod(in, &path_len);
      if (path_len == 0 || path_len > 4096 ||
          path_len > RemainingBytes(in)) {
        throw std::runtime_error(
            "dynamic index stream corrupt: bad epoch file path length");
      }
      std::string path(path_len, '\0');
      in.read(path.data(), static_cast<std::streamsize>(path_len));
      ReadPod(in, &checksum);
      ReadPod(in, &row_offset);
      if (!in) throw std::runtime_error("truncated dynamic index stream");
      auto store = storage::MmapStore::Open(path);  // validates its header
      if (store->checksum() != checksum) {
        throw std::runtime_error(
            "dynamic index epoch file checksum mismatch (file replaced "
            "since save?): " + path);
      }
      if (store->cols() != dim || row_offset > store->rows() ||
          epoch_rows > store->rows() - row_offset) {
        throw std::runtime_error(
            "dynamic index stream corrupt: epoch rows not contained in " +
            path);
      }
      if (row_offset == 0 && epoch_rows == store->rows()) {
        epoch->data.data = storage::VectorStoreRef(store);
      } else {
        epoch->data.data =
            storage::VectorStoreRef(std::make_shared<storage::SliceStore>(
                store, static_cast<size_t>(row_offset),
                static_cast<size_t>(epoch_rows)));
      }
    }
    try {
      if (storage_kind == kEpochInline) {
        epoch->data.data.Resize(epoch_rows, dim);
      }
      epoch->ids.resize(epoch_rows);
      epoch_dead.resize(epoch_rows);
    } catch (const std::bad_alloc&) {
      // Reachable only on non-seekable streams (no byte budget): translate
      // the allocator's verdict into the promised corrupt-stream error.
      throw std::runtime_error(
          "dynamic index stream corrupt: epoch allocation failed");
    }
    if (storage_kind == kEpochInline) {
      in.read(reinterpret_cast<char*>(epoch->data.data.MutableData()),
              epoch_rows * dim * sizeof(float));
    }
    in.read(reinterpret_cast<char*>(epoch->ids.data()),
            epoch_rows * sizeof(int32_t));
    in.read(reinterpret_cast<char*>(epoch_dead.data()), epoch_rows);
    if (!in) throw std::runtime_error("truncated dynamic index stream");
    uint8_t has_index = 0;
    ReadPod(in, &has_index);
    if (!has_index) {
      // SerializeState always persists an index alongside a non-empty
      // snapshot; its absence means the flag byte was tampered with, and
      // loading anyway would silently serve delta-only results.
      throw std::runtime_error(
          "dynamic index stream corrupt: snapshot without an epoch index");
    }
    epoch->index = reader(in, epoch->data);
    uint8_t has_quantized = 0;
    ReadPod(in, &has_quantized);
    if (has_quantized > 1) {
      throw std::runtime_error(
          "dynamic index stream corrupt: bad quantized flag");
    }
    if (has_quantized) {
      // Validates magic/cols/checksum before allocating, then re-encodes
      // the codes from the restored floats — deterministic, so the tier
      // serves identically to the one that was saved.
      storage::QuantizedStore::Codebook codebook =
          storage::QuantizedStore::DeserializeCodebook(in, dim);
      auto store = epoch->data.data.store();
      store->AttachQuantized(std::make_shared<const storage::QuantizedStore>(
          *store, options.metric, std::move(codebook)));
      index->options_.quantize = true;
    }
  }
  // Rows saved dead get stamp 1, like delta rows below (the clock restarts
  // at 1), and all count towards the snapshot over-fetch.
  epoch->deleted_at.reset(new std::atomic<uint64_t>[epoch_rows]());
  for (size_t r = 0; r < epoch_rows; ++r) {
    if (epoch_dead[r]) {
      epoch->deleted_at[r].store(1, std::memory_order_relaxed);
      ++index->epoch_removed_;
    }
  }
  index->survivors_ = epoch_rows - index->epoch_removed_;
  index->epoch_ = std::move(epoch);

  const uint64_t max_points = static_cast<uint64_t>(next_id);
  const uint64_t delta_budget = RemainingBytes(in);
  std::vector<float> delta_rows;
  std::vector<int32_t> delta_ids;
  std::vector<uint8_t> delta_dead;
  try {
    ReadSizedVec(in, &delta_rows,
                 std::min(max_points * dim, delta_budget / sizeof(float)),
                 kStreamName);
    ReadSizedVec(in, &delta_ids,
                 std::min(max_points, delta_budget / sizeof(int32_t)),
                 kStreamName);
    ReadSizedVec(in, &delta_dead, std::min(max_points, delta_budget),
                 kStreamName);
  } catch (const std::bad_alloc&) {
    throw std::runtime_error(
        "dynamic index stream corrupt: delta allocation failed");
  }
  if (delta_rows.size() != delta_ids.size() * dim ||
      delta_dead.size() != delta_ids.size()) {
    throw std::runtime_error(
        "dynamic index stream corrupt: delta arrays disagree");
  }

  // The id invariant everything else relies on — epoch ids strictly
  // ascending, then delta ids strictly ascending above them, all inside
  // [0, next_id) — must hold before any lookup binary-searches these
  // arrays: duplicates or wild values would find the wrong row, or none,
  // and corrupt Remove/Contains, LiveVectors and consolidation.
  int32_t prev = -1;
  for (const int32_t id : index->epoch_->ids) {
    if (id <= prev || static_cast<int64_t>(id) >= next_id) {
      throw std::runtime_error(
          "dynamic index stream corrupt: epoch ids out of order");
    }
    prev = id;
  }
  for (const int32_t id : delta_ids) {
    if (id <= prev || static_cast<int64_t>(id) >= next_id) {
      throw std::runtime_error(
          "dynamic index stream corrupt: delta ids out of order");
    }
    prev = id;
  }

  // Materialize the delta generation. Loaded tombstones get stamp 1 and the
  // clock restarts at 1: stamp 0 means live, and every stamp must sit at or
  // below the version of any snapshot acquired after the load.
  index->delta_len_ = delta_ids.size();
  index->version_ = 1;
  if (index->delta_len_ > 0) {
    // A restored quantized epoch lends its codebook to the delta, exactly
    // as EnsureDeltaCapacityLocked would.
    index->delta_ = FillDelta(
        std::max(kInitialDeltaCapacity, 2 * index->delta_len_), dim,
        EpochCodebook(index->options_.quantize, index->epoch_.get()),
        delta_rows.data(), delta_ids.data(), index->delta_len_);
    for (size_t s = 0; s < delta_dead.size(); ++s) {
      if (delta_dead[s]) {
        index->delta_->deleted_at[s].store(1, std::memory_order_relaxed);
      } else {
        ++index->survivors_;
      }
    }
  }
  return index;
}

}  // namespace core
}  // namespace lccs
