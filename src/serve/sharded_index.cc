#include "serve/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace lccs {
namespace serve {

namespace {

/// splitmix64 finalizer: a full-avalanche mix, so consecutive global ids
/// spread uniformly across shards instead of striping.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t ShardedIndex::ShardOf(int32_t id, size_t num_shards) {
  assert(num_shards > 0);
  return static_cast<size_t>(Mix64(static_cast<uint64_t>(id)) % num_shards);
}

// --- ShardedSnapshot -------------------------------------------------------

std::vector<util::Neighbor> ShardedSnapshot::Query(const float* query,
                                                   size_t k) const {
  return std::move(QueryBatch(query, 1, k)[0]);
}

std::vector<std::vector<util::Neighbor>> ShardedSnapshot::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  // Scatter: one pool task per shard. A nested ParallelFor runs inline
  // inside a pool task, so each shard engine owns one core; with S = 1
  // ParallelFor calls the task directly, outside the pool, and the shard
  // engine keeps its inner fan-out. ParallelFor rethrows a shard's error
  // only after every task has finished (the tasks write per_shard). Shards
  // answer in global ids, each list sorted by (distance, global id).
  std::vector<std::vector<std::vector<util::Neighbor>>> per_shard(
      shards_.size());
  util::ParallelFor(
      shards_.size(),
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          per_shard[s] =
              shards_[s].QueryBatch(queries, num_queries, k, num_threads);
        }
      },
      num_threads);
  // Gather: S-way merge per query.
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  std::vector<std::vector<util::Neighbor>> lists(shards_.size());
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      lists[s] = std::move(per_shard[s][q]);
    }
    results[q] = util::MergeSortedTopK(lists, k);
  }
  return results;
}

// --- ShardedIndex ----------------------------------------------------------

ShardedIndex::ShardedIndex(core::DynamicIndex::Factory factory,
                           Options options)
    : factory_(std::move(factory)), options_(options) {
  if (options_.num_shards == 0) {
    throw std::invalid_argument("ShardedIndex: num_shards must be positive");
  }
  const auto shard_options = ShardOptions(options_.metric, options_.dim);
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<core::DynamicIndex>(factory_, shard_options));
  }
}

core::DynamicIndex::Options ShardedIndex::ShardOptions(util::Metric metric,
                                                       size_t dim) const {
  core::DynamicIndex::Options shard_options;
  shard_options.metric = metric;
  shard_options.dim = dim;
  shard_options.rebuild_threshold = options_.rebuild_threshold;
  // MaintainShards schedules every shard's consolidations.
  shard_options.background_rebuild = false;
  shard_options.quantize = options_.quantize;
  shard_options.spill_dir = options_.spill_dir;
  return shard_options;
}

size_t ShardedIndex::ShardFor(int32_t id) const {
  const size_t S = shards_.size();
  const auto row = static_cast<uint64_t>(id);
  // Shard s of a Build owns [s*n/S, (s+1)*n/S): the last s with
  // floor(s*n/S) <= id, i.e. s*n < (id+1)*S.
  if (row < built_rows_) return ((row + 1) * S - 1) / built_rows_;
  return ShardOf(id, S);
}

std::shared_lock<std::shared_mutex> ShardedIndex::ReadLock() const {
  { std::lock_guard<std::mutex> gate(gate_); }
  return std::shared_lock<std::shared_mutex>(mutex_);
}

std::unique_lock<std::shared_mutex> ShardedIndex::WriteLock() const {
  std::lock_guard<std::mutex> gate(gate_);
  return std::unique_lock<std::shared_mutex>(mutex_);
}

void ShardedIndex::Build(const dataset::Dataset& data) {
  const size_t S = options_.num_shards;
  const size_t d = data.dim();

  // Bulk load partitions the rows into S *contiguous ranges* (balanced to
  // within one row) instead of hashing: a range is a zero-copy
  // storage::SliceStore view of the dataset's single shared store, so S
  // shards of a memory-mapped base set cost S views, not S private copies.
  // Placement is an internal detail — every shard holds global ids and the
  // S-way merge is over them, so query results are independent of which
  // shard holds which row. Inserts keep hash placement (ShardOf) for load
  // balance; ShardFor tells the two apart by comparing with built_rows_.
  const std::shared_ptr<const storage::VectorStore> store = data.data.store();

  std::vector<ShardSlice> slices(S);
  for (size_t s = 0; s < S; ++s) {
    const size_t begin = s * data.n() / S;
    const size_t end = (s + 1) * data.n() / S;
    if (begin == end) continue;  // never-built shard serves empty
    ShardSlice& slice = slices[s];
    slice.data.name = data.name + "/shard" + std::to_string(s);
    slice.data.metric = data.metric;
    slice.data.data = storage::VectorStoreRef(
        std::make_shared<storage::SliceStore>(store, begin, end - begin));
    slice.ids.resize(end - begin);
    std::iota(slice.ids.begin(), slice.ids.end(), static_cast<int32_t>(begin));
  }
  std::vector<std::unique_ptr<core::DynamicIndex>> shards =
      BuildShards(ShardOptions(data.metric, d), std::move(slices));

  auto lock = WriteLock();
  options_.metric = data.metric;
  options_.dim = d;
  // The replaced shards drain their own in-flight rebuilds in ~DynamicIndex.
  shards_ = std::move(shards);
  next_id_ = static_cast<int32_t>(data.n());
  built_rows_ = data.n();
  state_version_ = 0;
}

std::vector<std::unique_ptr<core::DynamicIndex>> ShardedIndex::BuildShards(
    const core::DynamicIndex::Options& shard_options,
    std::vector<ShardSlice> slices) const {
  // Fresh shards are built outside the lock, so queries keep serving the
  // old generation meanwhile, exactly like a DynamicIndex epoch install.
  // One pool task per shard: a nested ParallelFor runs inline inside a pool
  // task, so each shard hashes and builds its CSA on its own core; with
  // S = 1 ParallelFor calls the task directly, outside the pool, and the
  // shard keeps its hashing fan-out. ParallelFor rethrows a shard's error
  // only after every task has finished, and the new generation is dropped.
  std::vector<std::unique_ptr<core::DynamicIndex>> shards(slices.size());
  util::ParallelFor(slices.size(), [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      shards[s] = std::make_unique<core::DynamicIndex>(factory_, shard_options);
      if (slices[s].ids.empty()) continue;  // never-built shard serves empty
      shards[s]->Build(slices[s].data, std::move(slices[s].ids));
    }
  });
  return shards;
}

size_t ShardedIndex::dim() const {
  auto lock = ReadLock();
  return options_.dim;
}

size_t ShardedIndex::num_shards() const {
  // Build() replaces the shard vector under the writer lock, so even the
  // (invariant) size must be read under the reader lock.
  auto lock = ReadLock();
  return shards_.size();
}

uint64_t ShardedIndex::state_version() const {
  auto lock = ReadLock();
  return state_version_;
}

std::string ShardedIndex::name() const {
  size_t count = 0;
  std::string inner;
  {
    auto lock = ReadLock();
    count = shards_.size();
    inner = shards_.front()->name();
  }
  return "Sharded(" + std::to_string(count) + ", " + inner + ")";
}

size_t ShardedIndex::IndexSizeBytes() const {
  auto lock = ReadLock();
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->IndexSizeBytes();
  return bytes;
}

size_t ShardedIndex::live_count() const {
  auto lock = ReadLock();
  size_t live = 0;
  for (const auto& shard : shards_) live += shard->live_count();
  return live;
}

bool ShardedIndex::Contains(int32_t id) const {
  auto lock = ReadLock();
  return id >= 0 && shards_[ShardFor(id)]->Contains(id);
}

std::vector<core::DynamicIndex::Stats> ShardedIndex::ShardStats() const {
  auto lock = ReadLock();
  std::vector<core::DynamicIndex::Stats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

util::Matrix ShardedIndex::LiveVectors(std::vector<int32_t>* ids) const {
  CheckpointState state = CaptureCheckpointState();
  if (ids != nullptr) *ids = std::move(state.ids);
  return std::move(state.vectors);
}

ShardedIndex::CheckpointState ShardedIndex::CaptureCheckpointState() const {
  CheckpointState state;
  ShardedSnapshot snap;
  {
    auto lock = ReadLock();
    snap = AcquireSnapshotLocked();
    state.state_version = state_version_;
    state.next_id = next_id_;
    state.metric = options_.metric;
    state.dim = options_.dim;
  }
  // Outside the lock: the pinned cut stays fixed while writers go on. Each
  // shard walks its survivors in ascending global-id order, so merging the
  // S (id, row) runs gives the global order; every row is then copied once.
  size_t total = 0;
  for (const core::Snapshot& shard : snap.shards_) total += shard.live_count();
  std::vector<std::pair<int32_t, const float*>> live;
  live.reserve(total);
  for (const core::Snapshot& shard : snap.shards_) {
    const size_t mid = live.size();
    shard.ForEachLive(
        [&](int32_t id, const float* row) { live.emplace_back(id, row); });
    std::inplace_merge(live.begin(), live.begin() + mid, live.end());
  }
  state.ids.reserve(live.size());
  state.vectors = util::Matrix(live.size(), state.dim);
  for (size_t i = 0; i < live.size(); ++i) {
    state.ids.push_back(live[i].first);
    std::memcpy(state.vectors.Row(i), live[i].second,
                state.dim * sizeof(float));
  }
  return state;
}

void ShardedIndex::RestoreCheckpointState(const CheckpointState& state) {
  const size_t S = options_.num_shards;
  const size_t d = state.dim;
  if (state.ids.size() != state.vectors.rows() ||
      (!state.ids.empty() && state.vectors.cols() != d)) {
    throw std::runtime_error("checkpoint state: ids/vectors shape mismatch");
  }
  if (state.next_id < 0) {
    throw std::runtime_error("checkpoint state: negative next_id");
  }
  for (size_t i = 0; i < state.ids.size(); ++i) {
    // Ascending ids below next_id: every shard is built over an ascending
    // subset, and later inserts all get ids at or past next_id.
    if (state.ids[i] < 0 || state.ids[i] >= state.next_id ||
        (i > 0 && state.ids[i] <= state.ids[i - 1])) {
      throw std::runtime_error("checkpoint state: invalid id sequence");
    }
  }

  // Every survivor is hash-placed, so each shard's id list is an
  // ascending subset of state.ids.
  std::vector<ShardSlice> slices(S);
  for (int32_t id : state.ids) slices[ShardOf(id, S)].ids.push_back(id);
  std::vector<util::Matrix> shard_data;
  shard_data.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shard_data.emplace_back(slices[s].ids.size(), d);
  }
  std::vector<size_t> filled(S, 0);
  for (size_t i = 0; i < state.ids.size(); ++i) {
    const size_t s = ShardOf(state.ids[i], S);
    std::memcpy(shard_data[s].Row(filled[s]++), state.vectors.Row(i),
                d * sizeof(float));
  }
  for (size_t s = 0; s < S; ++s) {
    if (slices[s].ids.empty()) continue;
    slices[s].data.name = "checkpoint/shard" + std::to_string(s);
    slices[s].data.metric = state.metric;
    slices[s].data.data = storage::VectorStoreRef(
        std::make_shared<storage::InMemoryStore>(std::move(shard_data[s])));
  }
  std::vector<std::unique_ptr<core::DynamicIndex>> shards = BuildShards(
      ShardOptions(state.metric, d > 0 ? d : options_.dim), std::move(slices));

  auto lock = WriteLock();
  options_.metric = state.metric;
  if (d > 0) options_.dim = d;
  shards_ = std::move(shards);
  next_id_ = state.next_id;
  built_rows_ = 0;
  state_version_ = state.state_version;
}

ShardedIndex::MutationResult ShardedIndex::ApplyInsert(const float* vec) {
  auto lock = WriteLock();
  const int32_t id = next_id_;
  // Shard insert first: if it throws (e.g. dim never set), no counter
  // changes and no log position is consumed.
  shards_[ShardOf(id, shards_.size())]->Insert(vec, id);
  ++next_id_;
  ++state_version_;
  return MutationResult{true, id, state_version_};
}

ShardedIndex::MutationResult ShardedIndex::ApplyRemove(int32_t id) {
  auto lock = WriteLock();
  // The log position is consumed whether or not the remove takes effect:
  // the black-box checker replays a *dense* mutation log, and a refused
  // remove is a legitimate (no-op) entry in it.
  ++state_version_;
  const bool applied = id >= 0 && shards_[ShardFor(id)]->Remove(id);
  return MutationResult{applied, id, state_version_};
}

int32_t ShardedIndex::Insert(const float* vec) { return ApplyInsert(vec).id; }

bool ShardedIndex::Remove(int32_t id) { return ApplyRemove(id).applied; }

ShardedSnapshot ShardedIndex::AcquireSnapshot() const {
  auto lock = ReadLock();
  return AcquireSnapshotLocked();
}

ShardedSnapshot ShardedIndex::AcquireSnapshotLocked() const {
  ShardedSnapshot snap;
  snap.state_version_ = state_version_;
  snap.shards_.reserve(shards_.size());
  // Mutations hold this index's writer lock while they touch any shard, so
  // the S captures below — each O(1) under its shard's reader lock — form
  // one atomic cut at state_version_. Shard *rebuild installs* can land
  // between captures (rebuild threads bypass this lock by design), but an
  // install changes no logical content, so the cut is unaffected.
  for (const auto& shard : shards_) {
    snap.shards_.push_back(shard->AcquireSnapshot());
  }
  return snap;
}

std::vector<util::Neighbor> ShardedIndex::Query(const float* query,
                                                size_t k) const {
  return AcquireSnapshot().Query(query, k);
}

std::vector<std::vector<util::Neighbor>> ShardedIndex::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  return AcquireSnapshot().QueryBatch(queries, num_queries, k, num_threads);
}

size_t ShardedIndex::MaintainShards() {
  auto lock = ReadLock();
  struct Due {
    size_t shard = 0;
    size_t backlog = 0;
  };
  std::vector<Due> due;
  size_t in_flight = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const core::DynamicIndex::Stats stats = shards_[s]->stats();
    if (stats.rebuild_in_flight) {
      ++in_flight;
    } else if (stats.consolidation_due) {
      due.push_back(Due{s, std::max(stats.delta_rows, stats.tombstones)});
    }
  }
  // Largest backlog first: an oversized delta is the slowest brute-force
  // term in every query fan-out, and accumulated tombstones widen every
  // snapshot's epoch over-fetch — either way, consolidating the worst
  // shard buys the most.
  std::sort(due.begin(), due.end(),
            [](const Due& a, const Due& b) { return a.backlog > b.backlog; });
  size_t triggered = 0;
  for (const Due& candidate : due) {
    if (in_flight >= options_.max_concurrent_rebuilds) break;
    if (shards_[candidate.shard]->TriggerRebuild()) {
      ++in_flight;
      ++triggered;
    }
  }
  return triggered;
}

void ShardedIndex::ConsolidateAll() {
  auto lock = ReadLock();
  for (const auto& shard : shards_) shard->Consolidate();
}

void ShardedIndex::WaitForRebuilds() const {
  auto lock = ReadLock();
  for (const auto& shard : shards_) shard->WaitForRebuild();
}

}  // namespace serve
}  // namespace lccs
