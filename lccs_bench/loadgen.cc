#include "loadgen.h"

#include <dirent.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "trace.h"

namespace lccs_bench {
namespace {

using lccs::serve::MutationResponse;
using lccs::serve::QueryResponse;
using lccs::serve::Server;

/// Single-consumer FIFO of outstanding futures, oldest first.
template <typename T>
class Fifo {
 public:
  void Push(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(item));
    cv_.notify_one();
  }
  /// Blocks for the oldest item; false once closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Closed-loop admission gate: at most `limit` requests outstanding.
class Slots {
 public:
  void Acquire(size_t limit) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < limit; });
    ++outstanding_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

struct PendingQuery {
  std::future<QueryResponse> future;
  QueryRecord record;
};

struct PendingMutation {
  std::future<MutationResponse> future;
  MutationRecord record;
};

bool IsOverload(const std::exception& e) {
  return std::string(e.what()) == "server overloaded";
}

/// Shape check of one answer; returns what is wrong, or "" when fine.
std::string CheckQuery(const QueryResponse& r, size_t k, size_t max_batch,
                       int64_t id_bound) {
  if (r.neighbors.size() != k) return "wrong neighbor count";
  if (r.batch_id == 0) return "batch_id 0";
  if (r.batch_size == 0 || r.batch_size > max_batch) return "bad batch_size";
  for (size_t i = 0; i < r.neighbors.size(); ++i) {
    const lccs::util::Neighbor& nb = r.neighbors[i];
    if (nb.id < 0 || nb.id >= id_bound) return "neighbor id out of range";
    if (!std::isfinite(nb.dist) || nb.dist < 0.0) return "bad distance";
    if (i > 0 && nb.dist < r.neighbors[i - 1].dist) return "unsorted answer";
    for (size_t j = 0; j < i; ++j) {
      if (r.neighbors[j].id == nb.id) return "duplicate neighbor";
    }
  }
  return "";
}

pid_t ThreadId() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

/// Runs every thread of this process except `keep` at nice +5: the server,
/// its thread pool and the rebuild threads they start. The generator then
/// gets the CPU on time even when the server saturates every core, as a
/// load generator on its own machine would.
void DeprioritizeOtherThreads(const std::vector<pid_t>& keep) {
  DIR* tasks = ::opendir("/proc/self/task");
  if (tasks == nullptr) return;
  for (struct dirent* e = ::readdir(tasks); e != nullptr;
       e = ::readdir(tasks)) {
    const auto tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid > 0 && std::find(keep.begin(), keep.end(), tid) == keep.end()) {
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 5);
    }
  }
  ::closedir(tasks);
}

}  // namespace

void PerturbRow(const float* row, size_t dim, lccs::util::Rng* rng,
                float* out) {
  for (size_t j = 0; j < dim; ++j) {
    out[j] = row[j] + static_cast<float>(rng->Gaussian(0.0, 0.1));
  }
}

LoadResult RunLoad(Server& server, const LoadSpec& spec,
                   const lccs::storage::VectorStore& pool,
                   const lccs::storage::VectorStore& base) {
  LoadResult result;
  const size_t dim = pool.cols();
  const bool closed = !spec.open_loop;
  Slots slots;
  Fifo<PendingQuery> query_fifo;
  Fifo<PendingMutation> mutation_fifo;
  std::atomic<int64_t> id_bound{static_cast<int64_t>(base.rows())};
  std::mutex acked_mu;
  std::vector<int32_t> acked_inserts;  // handed from collector to submitter
  size_t malformed = 0;                // written by both collectors
  std::mutex malformed_mu;
  const auto note_malformed = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(malformed_mu);
    if (malformed++ == 0) result.first_malformed = what;
  };

  std::vector<QueryRecord> query_records;
  std::vector<int32_t> neighbor_ids;
  size_t query_refused = 0, query_failed = 0;
  std::promise<pid_t> query_tid, mutation_tid;
  std::thread query_collector([&] {
    query_tid.set_value(ThreadId());
    PendingQuery pending;
    while (query_fifo.Pop(&pending)) {
      QueryRecord rec = pending.record;
      try {
        const QueryResponse response = pending.future.get();
        rec.done_ns = NowNs();
        rec.ok = true;
        rec.batch_id = response.batch_id;
        rec.state_version = response.state_version;
        rec.ids_offset = neighbor_ids.size();
        for (size_t i = 0; i < spec.k; ++i) {
          neighbor_ids.push_back(i < response.neighbors.size()
                                     ? response.neighbors[i].id
                                     : -1);
        }
        const std::string problem =
            CheckQuery(response, spec.k, spec.max_batch, id_bound.load());
        if (!problem.empty()) note_malformed("query: " + problem);
      } catch (const std::exception& e) {
        rec.done_ns = NowNs();
        if (rec.measured) ++(IsOverload(e) ? query_refused : query_failed);
      }
      if (closed) slots.Release();
      query_records.push_back(rec);
    }
  });

  std::vector<MutationRecord> mutation_records;
  size_t mutation_refused = 0, mutation_failed = 0;
  std::thread mutation_collector([&] {
    mutation_tid.set_value(ThreadId());
    PendingMutation pending;
    while (mutation_fifo.Pop(&pending)) {
      MutationRecord rec = pending.record;
      try {
        const MutationResponse ack = pending.future.get();
        rec.done_ns = NowNs();
        rec.ok = true;
        rec.version = ack.state_version;
        if (rec.is_insert) {
          rec.id = ack.id;
          std::lock_guard<std::mutex> lock(acked_mu);
          acked_inserts.push_back(ack.id);
        } else if (ack.id != rec.id) {
          note_malformed("remove ack echoes another id");
        }
        if (!ack.applied) note_malformed("mutation not applied");
      } catch (const std::exception& e) {
        rec.done_ns = NowNs();
        if (rec.measured) {
          ++(IsOverload(e) ? mutation_refused : mutation_failed);
        }
      }
      if (closed) slots.Release();
      mutation_records.push_back(rec);
    }
  });

  // Every exit path, including an exception from the generator, drains
  // and joins both collectors before the state they use goes away.
  const auto finish = [&] {
    query_fifo.Close();
    mutation_fifo.Close();
    query_collector.join();
    mutation_collector.join();
  };
  bool stats_captured = false;
  const auto generate = [&] {
    lccs::util::Rng rng(spec.seed);
    std::vector<int32_t> live(base.rows());
    std::iota(live.begin(), live.end(), 0);
    std::vector<float> vec(dim);
    // Queries walk the pool in passes, each a fresh seeded permutation, so
    // every run asks every pool query about equally often.
    std::vector<uint32_t> order(pool.rows());
    std::iota(order.begin(), order.end(), 0u);
    size_t next_query = order.size();

    // Draws and submits one request whose latency clock starts at `ref_ns`.
    const auto submit = [&](uint64_t ref_ns, int32_t step, bool measured) {
      if (measured && !stats_captured) {
        result.stats_start = server.stats();
        stats_captured = true;
      }
      const double u = rng.UniformDouble();
      if (u < spec.insert_fraction) {
        const float* row = base.Row(rng.NextBounded(base.rows()));
        PendingMutation pending;
        pending.record.is_insert = true;
        pending.record.measured = measured;
        pending.record.ref_ns = ref_ns;
        pending.record.payload =
            static_cast<int64_t>(result.insert_payloads.size() / dim);
        PerturbRow(row, dim, &rng, vec.data());
        result.insert_payloads.insert(result.insert_payloads.end(), vec.begin(),
                                      vec.end());
        id_bound.fetch_add(1);
        pending.future = server.SubmitInsert(vec.data());
        mutation_fifo.Push(std::move(pending));
        return;
      }
      if (u < spec.insert_fraction + spec.remove_fraction) {
        {
          std::lock_guard<std::mutex> lock(acked_mu);
          live.insert(live.end(), acked_inserts.begin(), acked_inserts.end());
          acked_inserts.clear();
        }
        if (!live.empty()) {
          const size_t pick = rng.NextBounded(live.size());
          PendingMutation pending;
          pending.record.id = live[pick];
          pending.record.measured = measured;
          pending.record.ref_ns = ref_ns;
          live[pick] = live.back();
          live.pop_back();
          pending.future = server.SubmitRemove(pending.record.id);
          mutation_fifo.Push(std::move(pending));
          return;
        }
      }
      if (next_query == order.size()) {
        rng.Shuffle(&order);
        next_query = 0;
      }
      PendingQuery pending;
      pending.record.pool_index = order[next_query++];
      pending.record.step = step;
      pending.record.measured = measured;
      pending.record.ref_ns = ref_ns;
      pending.future =
          server.SubmitQuery(pool.Row(pending.record.pool_index), spec.k);
      query_fifo.Push(std::move(pending));
    };

    if (closed) {
      const uint64_t start = NowNs();
      result.measure_start_ns =
          start + static_cast<uint64_t>(spec.warmup_s * 1e9);
      result.measure_end_ns =
          result.measure_start_ns + static_cast<uint64_t>(spec.measure_s * 1e9);
      for (;;) {
        slots.Acquire(spec.in_flight);
        const uint64_t now = NowNs();
        if (now >= result.measure_end_ns) {
          slots.Release();
          break;
        }
        submit(now, 0, now >= result.measure_start_ns);
      }
    } else {
      // Arrivals are evenly spaced from one submitter, and each request's
      // latency clock starts at its scheduled time, so a stall in the
      // generator or the server is charged to every request it delays.
      // Wake-ups land within ~1 us of the due time instead of the default
      // 50 us timer slack.
      const int slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
      ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
      result.step_lateness_s.resize(spec.steps.size());
      const uint64_t t0 = NowNs() + 1000000;
      uint64_t step_start = t0;
      bool first_measured = true;
      for (size_t s = 0; s < spec.steps.size(); ++s) {
        const Step& step = spec.steps[s];
        result.step_start_ns.push_back(step_start);
        const double interval_ns = 1e9 / step.qps;
        const auto count =
            static_cast<size_t>(std::llround(step.seconds * step.qps));
        const uint64_t step_end =
            step_start + static_cast<uint64_t>(step.seconds * 1e9);
        if (step.measured) {
          if (first_measured) result.measure_start_ns = step_start;
          first_measured = false;
          result.measure_end_ns = step_end;
        }
        for (size_t i = 0; i < count; ++i) {
          const uint64_t due =
              step_start + static_cast<uint64_t>(static_cast<double>(i) *
                                                 interval_ns);
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          result.step_lateness_s[s].push_back(
              static_cast<double>(NowNs() - due) * 1e-9);
          submit(due, static_cast<int32_t>(s), step.measured);
        }
        step_start = step_end;
      }
      result.step_start_ns.push_back(step_start);
      if (slack > 0) ::prctl(PR_SET_TIMERSLACK, slack, 0, 0, 0);
    }

  };
  try {
    DeprioritizeOtherThreads({ThreadId(), query_tid.get_future().get(),
                              mutation_tid.get_future().get()});
    generate();
  } catch (...) {
    finish();
    throw;
  }
  finish();
  result.stats_end = server.stats();
  if (!stats_captured) result.stats_start = result.stats_end;
  result.queries = std::move(query_records);
  result.neighbor_ids = std::move(neighbor_ids);
  result.mutations = std::move(mutation_records);
  result.refused = query_refused + mutation_refused;
  result.failed = query_failed + mutation_failed;
  result.malformed = malformed;
  return result;
}

}  // namespace lccs_bench
