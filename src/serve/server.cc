#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/replication.h"

namespace lccs {
namespace serve {

namespace {

/// Group commit: the oldest deferred ack waits at most this long before the
/// writer forces an fsync, even while the mutation queue stays busy.
constexpr uint64_t kGroupCommitMaxUs = 1000;

template <typename Response>
std::future<Response> BrokenFuture(const char* what) {
  std::promise<Response> promise;
  promise.set_exception(std::make_exception_ptr(std::runtime_error(what)));
  return promise.get_future();
}

}  // namespace

Server::Server(ShardedIndex* index, Options options)
    : index_(index), options_(std::move(options)) {
  if (index_ == nullptr) {
    throw std::invalid_argument("Server: index must not be null");
  }
  dim_ = index_->dim();
  if (dim_ == 0) {
    throw std::invalid_argument(
        "Server: index dimensionality unknown — Build the ShardedIndex or "
        "construct it with Options::dim before serving");
  }
  if (options_.max_batch == 0) options_.max_batch = 1;
  window_thread_ = std::thread([this] { WindowLoop(); });
  writer_thread_ = std::thread([this] { WriterLoop(); });
}

Server::~Server() { Stop(); }

uint64_t Server::NowUs() const {
  if (options_.now_us) return options_.now_us();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Server::Admission Server::Admit(Request&& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kStopped;
  }
  if (options_.max_queue > 0 &&
      query_queue_.size() + mutation_queue_.size() >= options_.max_queue) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kOverloaded;
  }
  // Stamped under the lock so arrival order matches queue order — the
  // window-deadline logic relies on arrivals being monotone down the queue.
  request.arrival_us = NowUs();
  if (request.kind == Request::kQuery) {
    query_queue_.push_back(std::move(request));
    window_cv_.notify_one();
  } else {
    mutation_queue_.push_back(std::move(request));
    writer_cv_.notify_one();
  }
  return Admission::kAdmitted;
}

const char* Server::AdmissionError(Admission verdict) {
  return verdict == Admission::kStopped ? "server stopped"
                                        : "server overloaded";
}

std::future<QueryResponse> Server::SubmitQuery(const float* vec, size_t k) {
  Request request;
  request.kind = Request::kQuery;
  request.vec.assign(vec, vec + dim_);
  request.k = k;
  std::future<QueryResponse> future = request.query_promise.get_future();
  const Admission verdict = Admit(std::move(request));
  if (verdict != Admission::kAdmitted) {
    return BrokenFuture<QueryResponse>(AdmissionError(verdict));
  }
  return future;
}

std::future<MutationResponse> Server::SubmitInsert(const float* vec) {
  Request request;
  request.kind = Request::kInsert;
  request.vec.assign(vec, vec + dim_);
  std::future<MutationResponse> future = request.mutation_promise.get_future();
  const Admission verdict = Admit(std::move(request));
  if (verdict != Admission::kAdmitted) {
    return BrokenFuture<MutationResponse>(AdmissionError(verdict));
  }
  return future;
}

std::future<MutationResponse> Server::SubmitRemove(int32_t id) {
  Request request;
  request.kind = Request::kRemove;
  request.id = id;
  std::future<MutationResponse> future = request.mutation_promise.get_future();
  const Admission verdict = Admit(std::move(request));
  if (verdict != Admission::kAdmitted) {
    return BrokenFuture<MutationResponse>(AdmissionError(verdict));
  }
  return future;
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    window_cv_.notify_all();
    writer_cv_.notify_all();
  }
  // join() is not idempotent; the destructor and an explicit Stop() both
  // land here, so guard on joinability (single-threaded teardown, as with
  // every other owner-joins-thread type in this repository).
  if (window_thread_.joinable()) window_thread_.join();
  if (writer_thread_.joinable()) writer_thread_.join();
}

void Server::Poke() {
  std::lock_guard<std::mutex> lock(mu_);
  window_cv_.notify_all();
  writer_cv_.notify_all();
}

void Server::CheckpointNow() {
  if (options_.wal == nullptr) return;
  options_.wal->WriteCheckpoint(index_->CaptureCheckpointState());
}

Server::Stats Server::stats() const {
  Stats out;
  out.queries_served = queries_served_.load(std::memory_order_relaxed);
  out.mutations_applied = mutations_applied_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.windows_closed_full = closed_full_.load(std::memory_order_relaxed);
  out.windows_closed_deadline =
      closed_deadline_.load(std::memory_order_relaxed);
  out.windows_closed_shutdown =
      closed_shutdown_.load(std::memory_order_relaxed);
  out.rebuilds_triggered = rebuilds_triggered_.load(std::memory_order_relaxed);
  out.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  if (options_.wal != nullptr) {
    const WriteAheadLog::Stats wal = options_.wal->stats();
    out.wal_fsyncs = wal.fsyncs;
    out.wal_records = wal.records_appended;
    out.wal_bytes = wal.bytes_appended;
    out.checkpoints = wal.checkpoints;
    out.recovery_replayed = wal.recovery_replayed;
  }
  if (options_.shipper != nullptr) {
    const LogShipper::Stats shipper = options_.shipper->stats();
    out.followers_connected = shipper.followers_connected;
    out.followers_active = shipper.followers_active;
    out.records_shipped = shipper.records_shipped;
    out.shipped_version = shipper.shipped_version;
  }
  return out;
}

void Server::WriterLoop() {
  // Consolidation scheduling runs at the idle edge of a mutation run and —
  // so a saturating mutation stream that never drains the queue still
  // consolidates — at least every this-many applied mutations.
  constexpr size_t kMutationsPerMaintenance = 64;
  size_t mutations_since_maintenance = 0;
  size_t mutations_since_checkpoint = 0;
  PendingAcks pending;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    writer_cv_.wait(lock,
                    [&] { return stopping_ || !mutation_queue_.empty(); });
    if (mutation_queue_.empty()) {
      if (stopping_) {
        // Deferred acks never outlive the loop: the last pop's idle edge
        // flushed them, but guard against wakeup orderings anyway.
        lock.unlock();
        FlushPendingAcks(&pending);
        return;
      }
      continue;
    }
    Request request = std::move(mutation_queue_.front());
    mutation_queue_.pop_front();
    const bool idle_after = mutation_queue_.empty();
    // Applied outside mu_: the index serializes mutations on its own writer
    // lock, and admission must not stall behind a shard insert. Admission
    // order is preserved — this thread is the only consumer of the queue.
    lock.unlock();
    ApplyMutation(std::move(request), &pending, idle_after);
    ++mutations_since_maintenance;
    if (idle_after ||
        mutations_since_maintenance >= kMutationsPerMaintenance) {
      rebuilds_triggered_.fetch_add(index_->MaintainShards(),
                                    std::memory_order_relaxed);
      mutations_since_maintenance = 0;
    }
    if (options_.wal != nullptr && options_.checkpoint_every > 0 &&
        ++mutations_since_checkpoint >= options_.checkpoint_every) {
      // Ack latency hygiene: a checkpoint stalls this thread while it copies
      // the live set out of a pinned snapshot and writes and fsyncs the
      // image, so release what is already fsync-coverable first.
      FlushPendingAcks(&pending);
      try {
        CheckpointNow();
      } catch (...) {
        // A failed checkpoint costs nothing but disk reclamation — the WAL
        // keeps every record and recovery falls back to the older cut. The
        // writer must keep serving acks regardless; the failure is counted
        // so a log that can never checkpoint shows in stats().
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      mutations_since_checkpoint = 0;
    }
    lock.lock();
  }
}

void Server::WindowLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    window_cv_.wait(lock, [&] { return stopping_ || !query_queue_.empty(); });
    if (query_queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // The front query opens a batching window. Its deadline is anchored to
    // the *first query's admission*, so a query cannot wait longer than
    // max_delay_us however the window fills. Mutations flow through their
    // own queue to the writer thread and neither close nor delay a window.
    std::vector<Request> batch;
    batch.push_back(std::move(query_queue_.front()));
    query_queue_.pop_front();
    const uint64_t deadline = batch.front().arrival_us + options_.max_delay_us;
    WindowClose reason = WindowClose::kDeadline;
    // Under an injected clock, only queries admitted before the deadline
    // join; one admitted at or after it opens the *next* window. That keeps
    // batch membership a pure function of the admission sequence (+ stamped
    // arrivals), so the deterministic tests replay it exactly. On the real
    // clock the cut would hurt exactly when batching matters most — a
    // backlog whose stamps span the deadline would splinter into small
    // windows — so there a closing window absorbs everything queued, up to
    // max_batch.
    const bool deterministic_membership = static_cast<bool>(options_.now_us);
    for (;;) {
      while (batch.size() < options_.max_batch && !query_queue_.empty() &&
             (!deterministic_membership ||
              query_queue_.front().arrival_us < deadline)) {
        batch.push_back(std::move(query_queue_.front()));
        query_queue_.pop_front();
      }
      if (batch.size() >= options_.max_batch) {
        reason = WindowClose::kFull;
        break;
      }
      if (!query_queue_.empty()) {
        // The next query belongs to the next window — its arrival implies
        // the deadline has passed.
        reason = WindowClose::kDeadline;
        break;
      }
      if (stopping_) {
        reason = WindowClose::kShutdown;
        break;
      }
      const uint64_t now = NowUs();
      if (now >= deadline) {
        reason = WindowClose::kDeadline;
        break;
      }
      if (options_.now_us) {
        // Injected clock: time only moves when the test says so, and the
        // test Poke()s after advancing — park until then.
        window_cv_.wait(lock);
      } else {
        window_cv_.wait_for(lock, std::chrono::microseconds(deadline - now));
      }
    }
    lock.unlock();
    ExecuteBatch(std::move(batch), reason);
    rebuilds_triggered_.fetch_add(index_->MaintainShards(),
                                  std::memory_order_relaxed);
    lock.lock();
  }
}

void Server::ApplyMutation(Request&& request, PendingAcks* pending,
                           bool idle_after) {
  MutationResponse response;
  try {
    const ShardedIndex::MutationResult result =
        request.kind == Request::kInsert
            ? index_->ApplyInsert(request.vec.data())
            : index_->ApplyRemove(request.id);
    response.applied = result.applied;
    // Echo the *target* id for removes (ApplyRemove echoes it too, but the
    // request is the source of truth); inserts report the assigned id.
    response.id = request.kind == Request::kInsert ? result.id : request.id;
    // A refused remove still consumed a log position inside the index: the
    // log stays a dense total order and the oracle replays it as a no-op.
    response.state_version = result.state_version;
  } catch (...) {
    // The index bumps its version only after a mutation lands, so a failed
    // one consumes no log position and the order stays dense.
    request.mutation_promise.set_exception(std::current_exception());
    return;
  }
  mutations_applied_.fetch_add(1, std::memory_order_relaxed);
  WriteAheadLog* wal = options_.wal;
  if (wal == nullptr) {
    request.mutation_promise.set_value(response);
    return;
  }
  // Log before ack. A failed append jams the log (the WAL refuses to write
  // across a hole), so this and every later mutation break their futures
  // instead of acking non-durable writes; the in-memory index keeps
  // serving, and recovery reproduces exactly the logged prefix.
  try {
    WriteAheadLog::Record record;
    record.version = response.state_version;
    record.is_insert = request.kind == Request::kInsert;
    record.id = response.id;
    if (record.is_insert) record.vec = std::move(request.vec);
    wal->Append(record);
  } catch (...) {
    request.mutation_promise.set_exception(std::current_exception());
    return;
  }
  if (wal->options().fsync_policy == WriteAheadLog::FsyncPolicy::kEveryRecord) {
    pending->acks.emplace_back(std::move(request.mutation_promise), response);
    FlushPendingAcks(pending);
    return;
  }
  if (pending->acks.empty()) pending->oldest_us = NowUs();
  pending->acks.emplace_back(std::move(request.mutation_promise), response);
  if (idle_after ||
      pending->acks.size() >= wal->options().group_commit_max_records ||
      NowUs() - pending->oldest_us >= kGroupCommitMaxUs) {
    FlushPendingAcks(pending);
  }
}

void Server::FlushPendingAcks(PendingAcks* pending) {
  if (pending->acks.empty()) return;
  try {
    options_.wal->Sync();
  } catch (...) {
    // The fsync failed: the records may or may not have reached the disk,
    // so the acks must not claim durability.
    const std::exception_ptr error = std::current_exception();
    for (auto& ack : pending->acks) ack.first.set_exception(error);
    pending->acks.clear();
    return;
  }
  for (auto& ack : pending->acks) ack.first.set_value(ack.second);
  pending->acks.clear();
}

void Server::ExecuteBatch(std::vector<Request> batch, WindowClose reason) {
  switch (reason) {
    case WindowClose::kFull:
      closed_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WindowClose::kDeadline:
      closed_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WindowClose::kShutdown:
      closed_shutdown_.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  const size_t n = batch.size();
  const size_t d = dim_;
  size_t k_max = 0;
  for (const Request& request : batch) k_max = std::max(k_max, request.k);

  // One atomic cut for the whole window — acquired even when every query
  // asked for k = 0, so the responses still name a definite version. The
  // writer thread keeps applying mutations while the batch executes below;
  // they land beyond this snapshot's cut and are invisible to it.
  const ShardedSnapshot snapshot = index_->AcquireSnapshot();

  // The window executes at its largest k and every query is truncated to
  // its own k. For exact shard configurations the top-k is a prefix of the
  // top-k_max (one total (distance, id) order), so truncation is identical
  // to a solo Query — the property the oracle checker verifies.
  std::vector<std::vector<util::Neighbor>> results(n);
  if (k_max > 0) {
    std::vector<float> block(n * d);
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(block.data() + i * d, batch[i].vec.data(),
                  d * sizeof(float));
    }
    try {
      results = snapshot.QueryBatch(block.data(), n, k_max,
                                    options_.num_threads);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (Request& request : batch) {
        request.query_promise.set_exception(error);
      }
      return;
    }
  }

  // Consumed only by a window that actually produced responses, so batch
  // ids stay dense (a failed execution surfaces as exceptions above and
  // must not burn an id).
  const uint64_t batch_id = ++next_batch_id_;
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_served_.fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    QueryResponse response;
    response.neighbors = std::move(results[i]);
    if (response.neighbors.size() > batch[i].k) {
      response.neighbors.resize(batch[i].k);
    }
    response.batch_id = batch_id;
    response.state_version = snapshot.state_version();
    response.batch_size = n;
    batch[i].query_promise.set_value(std::move(response));
  }
}

}  // namespace serve
}  // namespace lccs
