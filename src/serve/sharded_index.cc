#include "serve/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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

/// First id-map generation's capacity (generations double from here).
constexpr size_t kInitialMapCapacity = 64;

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
  // only after every task has finished (the tasks write per_shard).
  std::vector<std::vector<std::vector<util::Neighbor>>> per_shard(
      shards_.size());
  util::ParallelFor(
      shards_.size(),
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          per_shard[s] = shards_[s].snapshot.QueryBatch(queries, num_queries,
                                                        k, num_threads);
          // Local -> global is monotone (ascending within a shard), so each
          // list stays sorted by (distance, global id) after the remap.
          const std::vector<int32_t>& map = *shards_[s].local_to_global;
          for (std::vector<util::Neighbor>& list : per_shard[s]) {
            for (util::Neighbor& nb : list) {
              nb.id = map[static_cast<size_t>(nb.id)];
            }
          }
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
  core::DynamicIndex::Options shard_options;
  shard_options.metric = options_.metric;
  shard_options.dim = options_.dim;
  shard_options.rebuild_threshold = options_.rebuild_threshold;
  shard_options.background_rebuild = options_.shard_background_rebuild;
  shard_options.quantize = options_.quantize;
  shards_.reserve(options_.num_shards);
  local_to_global_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<core::DynamicIndex>(factory_, shard_options));
    local_to_global_.push_back(std::make_shared<std::vector<int32_t>>());
  }
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
  // Placement is an internal detail — global ids, per-shard ascending
  // local->global maps and the S-way merge make query results independent
  // of which shard holds which row. Inserts keep hash placement (ShardOf)
  // for load balance; the two coexist because every lookup goes through
  // locations_.
  std::vector<std::shared_ptr<std::vector<int32_t>>> shard_rows;
  shard_rows.reserve(S);
  const std::shared_ptr<const storage::VectorStore> store = data.data.store();

  core::DynamicIndex::Options shard_options;
  shard_options.metric = data.metric;
  shard_options.dim = d;
  shard_options.rebuild_threshold = options_.rebuild_threshold;
  shard_options.background_rebuild = options_.shard_background_rebuild;
  shard_options.quantize = options_.quantize;
  shard_options.spill_dir = options_.spill_dir;

  // Build fresh shards outside the lock — queries keep serving the old
  // generation meanwhile, exactly like a DynamicIndex epoch install.
  std::vector<std::unique_ptr<core::DynamicIndex>> shards;
  shards.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(
        std::make_unique<core::DynamicIndex>(factory_, shard_options));
    shard_rows.push_back(std::make_shared<std::vector<int32_t>>());
    const size_t begin = s * data.n() / S;
    const size_t end = (s + 1) * data.n() / S;
    if (begin == end) continue;  // never-built shard serves empty
    shard_rows[s]->resize(end - begin);
    for (size_t r = 0; r < end - begin; ++r) {
      (*shard_rows[s])[r] = static_cast<int32_t>(begin + r);
    }
    dataset::Dataset slice;
    slice.name = data.name + "/shard" + std::to_string(s);
    slice.metric = data.metric;
    slice.data = storage::VectorStoreRef(
        std::make_shared<storage::SliceStore>(store, begin, end - begin));
    shards[s]->Build(slice);
  }

  std::vector<Location> locations(data.n());
  for (size_t s = 0; s < S; ++s) {
    for (size_t r = 0; r < shard_rows[s]->size(); ++r) {
      locations[static_cast<size_t>((*shard_rows[s])[r])] =
          Location{static_cast<uint32_t>(s), static_cast<int32_t>(r)};
    }
  }

  auto lock = WriteLock();
  options_.metric = data.metric;
  options_.dim = d;
  // The replaced shards drain their own in-flight rebuilds in ~DynamicIndex.
  shards_ = std::move(shards);
  locations_ = std::move(locations);
  local_to_global_ = std::move(shard_rows);
  next_id_ = static_cast<int32_t>(data.n());
  state_version_ = 0;
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
  size_t bytes = locations_.size() * sizeof(Location);
  for (size_t s = 0; s < shards_.size(); ++s) {
    bytes += shards_[s]->IndexSizeBytes() +
             local_to_global_[s]->size() * sizeof(int32_t);
  }
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
  if (id < 0 || id >= next_id_) return false;
  const Location loc = locations_[static_cast<size_t>(id)];
  return shards_[loc.shard]->Contains(loc.local);
}

std::vector<core::DynamicIndex::Stats> ShardedIndex::ShardStats() const {
  auto lock = ReadLock();
  std::vector<core::DynamicIndex::Stats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

util::Matrix ShardedIndex::LiveVectors(std::vector<int32_t>* ids) const {
  auto lock = ReadLock();
  return LiveVectorsLocked(ids);
}

util::Matrix ShardedIndex::LiveVectorsLocked(std::vector<int32_t>* ids) const {
  const size_t d = options_.dim;
  // Gather per-shard survivors, then emit in ascending global-id order.
  struct Source {
    int32_t global = 0;
    size_t shard = 0;
    size_t row = 0;
  };
  std::vector<Source> sources;
  std::vector<util::Matrix> rows(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<int32_t> local_ids;
    rows[s] = shards_[s]->LiveVectors(&local_ids);
    for (size_t r = 0; r < local_ids.size(); ++r) {
      sources.push_back(Source{
          (*local_to_global_[s])[static_cast<size_t>(local_ids[r])], s, r});
    }
  }
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) { return a.global < b.global; });
  util::Matrix out(sources.size(), d);
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(sources.size());
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    std::memcpy(out.Row(i), rows[sources[i].shard].Row(sources[i].row),
                d * sizeof(float));
    if (ids != nullptr) ids->push_back(sources[i].global);
  }
  return out;
}

ShardedIndex::CheckpointState ShardedIndex::CaptureCheckpointState() const {
  auto lock = ReadLock();
  CheckpointState state;
  state.state_version = state_version_;
  state.next_id = next_id_;
  state.metric = options_.metric;
  state.dim = options_.dim;
  state.vectors = LiveVectorsLocked(&state.ids);
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
    // Ascending ids below next_id: ascending input keeps every per-shard
    // local->global map monotone, the invariant the S-way merge relies on.
    if (state.ids[i] < 0 || state.ids[i] >= state.next_id ||
        (i > 0 && state.ids[i] <= state.ids[i - 1])) {
      throw std::runtime_error("checkpoint state: invalid id sequence");
    }
  }

  std::vector<size_t> counts(S, 0);
  for (int32_t id : state.ids) ++counts[ShardOf(id, S)];

  core::DynamicIndex::Options shard_options;
  shard_options.metric = state.metric;
  shard_options.dim = d > 0 ? d : options_.dim;
  shard_options.rebuild_threshold = options_.rebuild_threshold;
  shard_options.background_rebuild = options_.shard_background_rebuild;
  shard_options.quantize = options_.quantize;
  shard_options.spill_dir = options_.spill_dir;

  // Fresh shards are populated and built outside the lock — queries keep
  // serving the old generation meanwhile, exactly like Build().
  std::vector<std::unique_ptr<core::DynamicIndex>> shards;
  std::vector<std::shared_ptr<std::vector<int32_t>>> shard_rows;
  std::vector<util::Matrix> shard_data;
  shards.reserve(S);
  shard_rows.reserve(S);
  shard_data.reserve(S);
  for (size_t s = 0; s < S; ++s) {
    shards.push_back(
        std::make_unique<core::DynamicIndex>(factory_, shard_options));
    shard_rows.push_back(std::make_shared<std::vector<int32_t>>());
    shard_rows[s]->reserve(counts[s]);
    shard_data.emplace_back(counts[s], d);
  }
  // Dead (or never-assigned-to-a-survivor) ids resolve to local id -1,
  // which every shard lookup (Contains / Remove) reports as unknown.
  std::vector<Location> locations(static_cast<size_t>(state.next_id),
                                  Location{0, -1});
  for (size_t i = 0; i < state.ids.size(); ++i) {
    const int32_t id = state.ids[i];
    const size_t s = ShardOf(id, S);
    const size_t local = shard_rows[s]->size();
    std::memcpy(shard_data[s].Row(local), state.vectors.Row(i),
                d * sizeof(float));
    shard_rows[s]->push_back(id);
    locations[static_cast<size_t>(id)] =
        Location{static_cast<uint32_t>(s), static_cast<int32_t>(local)};
  }
  for (size_t s = 0; s < S; ++s) {
    if (shard_rows[s]->empty()) continue;
    dataset::Dataset slice;
    slice.name = "checkpoint/shard" + std::to_string(s);
    slice.metric = state.metric;
    slice.data = storage::VectorStoreRef(
        std::make_shared<storage::InMemoryStore>(std::move(shard_data[s])));
    shards[s]->Build(slice);
  }

  auto lock = WriteLock();
  options_.metric = state.metric;
  if (d > 0) options_.dim = d;
  shards_ = std::move(shards);
  locations_ = std::move(locations);
  local_to_global_ = std::move(shard_rows);
  next_id_ = state.next_id;
  state_version_ = state.state_version;
}

ShardedIndex::MutationResult ShardedIndex::ApplyInsert(const float* vec) {
  auto lock = WriteLock();
  const int32_t id = next_id_;
  const size_t s = ShardOf(id, shards_.size());
  // Shard insert first: if it throws (e.g. dim never set), no map changes
  // and no log position is consumed.
  const int32_t local = shards_[s]->Insert(vec);
  std::shared_ptr<std::vector<int32_t>>& map = local_to_global_[s];
  assert(static_cast<size_t>(local) == map->size());
  (void)local;
  if (map->size() == map->capacity()) {
    // Full generation: clone into a doubled successor instead of letting
    // push_back reallocate in place — snapshots pinning the old generation
    // keep reading it untouched. Within capacity, push_back only writes the
    // new slot and the end pointer, neither of which a pinned reader
    // touches.
    auto grown = std::make_shared<std::vector<int32_t>>();
    grown->reserve(std::max(kInitialMapCapacity, 2 * map->capacity()));
    grown->assign(map->begin(), map->end());
    map = std::move(grown);
  }
  map->push_back(id);
  locations_.push_back(Location{static_cast<uint32_t>(s), local});
  ++next_id_;
  if (options_.dim == 0) options_.dim = shards_[s]->dim();
  ++state_version_;
  return MutationResult{true, id, state_version_};
}

ShardedIndex::MutationResult ShardedIndex::ApplyRemove(int32_t id) {
  auto lock = WriteLock();
  // The log position is consumed whether or not the remove takes effect:
  // the black-box checker replays a *dense* mutation log, and a refused
  // remove is a legitimate (no-op) entry in it.
  ++state_version_;
  bool applied = false;
  if (id >= 0 && id < next_id_) {
    const Location loc = locations_[static_cast<size_t>(id)];
    applied = shards_[loc.shard]->Remove(loc.local);
  }
  return MutationResult{applied, id, state_version_};
}

int32_t ShardedIndex::Insert(const float* vec) { return ApplyInsert(vec).id; }

bool ShardedIndex::Remove(int32_t id) { return ApplyRemove(id).applied; }

ShardedSnapshot ShardedIndex::AcquireSnapshot() const {
  auto lock = ReadLock();
  ShardedSnapshot snap;
  snap.state_version_ = state_version_;
  snap.shards_.reserve(shards_.size());
  // Mutations hold this index's writer lock while they touch any shard, so
  // the S captures below — each O(1) under its shard's reader lock — form
  // one atomic cut at state_version_. Shard *rebuild installs* can land
  // between captures (rebuild threads bypass this lock by design), but an
  // install changes no logical content, so the cut is unaffected.
  for (size_t s = 0; s < shards_.size(); ++s) {
    snap.shards_.push_back(ShardedSnapshot::ShardView{
        shards_[s]->AcquireSnapshot(), local_to_global_[s]});
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
    } else if (stats.delta_rows >= options_.rebuild_threshold ||
               stats.tombstones >= options_.rebuild_threshold) {
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
