#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>

namespace lccs {
namespace util {

namespace {

// Set while a thread is executing a pool task (worker or helping caller).
// Nested ParallelRange calls from such a thread run inline instead of
// re-entering the pool, so nesting can never deadlock.
thread_local bool tl_in_pool_task = false;

struct ScopedInPoolTask {
  bool previous;
  ScopedInPoolTask() : previous(tl_in_pool_task) { tl_in_pool_task = true; }
  ~ScopedInPoolTask() { tl_in_pool_task = previous; }
};

size_t DefaultWorkerCount() {
  const char* env = std::getenv("LCCS_POOL_WORKERS");
  if (env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

struct ThreadPool::Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;
};

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(DefaultWorkerCount());
  return pool;
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::PushTask(std::function<void()> task) {
  const size_t w =
      next_submit_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Worker& worker = *workers_[w];
  size_t backlog;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.tasks.push_back(std::move(task));
    backlog = worker.tasks.size();
  }
  worker.cv.notify_one();
  // The target already had work queued, so it may be busy for a while —
  // poke a peer so an idle worker rescans for steals now instead of at its
  // next backoff timeout.
  if (backlog > 1 && workers_.size() > 1) {
    workers_[(w + 1) % workers_.size()]->cv.notify_one();
  }
}

bool ThreadPool::RunOneTask(size_t home_index) {
  std::function<void()> task;
  {
    Worker& home = *workers_[home_index];
    std::lock_guard<std::mutex> lock(home.mu);
    if (!home.tasks.empty()) {
      task = std::move(home.tasks.back());
      home.tasks.pop_back();
    }
  }
  if (!task) {
    for (size_t offset = 1; offset < workers_.size() && !task; ++offset) {
      Worker& victim = *workers_[(home_index + offset) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  Worker& self = *workers_[index];
  std::chrono::milliseconds idle_wait(1);
  while (!stop_.load(std::memory_order_acquire)) {
    if (RunOneTask(index)) {
      idle_wait = std::chrono::milliseconds(1);
      continue;
    }
    // Nothing runnable anywhere right now. Sleep on the own queue's cv;
    // the timeout doubles as a periodic steal re-scan. Deliberately not a
    // predicated wait: PushTask pokes a peer's cv when a deque backs up,
    // and any wakeup — own push, peer poke, spurious — should fall through
    // to a full rescan. Exponential backoff keeps a long-idle pool at ~16
    // wakeups/s per worker instead of spinning at the re-scan interval,
    // while a busy pool still discovers stealable work within a
    // millisecond.
    {
      std::unique_lock<std::mutex> lock(self.mu);
      if (self.tasks.empty() && !stop_.load(std::memory_order_acquire)) {
        self.cv.wait_for(lock, idle_wait);
      }
    }
    idle_wait = std::min(idle_wait * 2, std::chrono::milliseconds(64));
  }
}

void ThreadPool::ParallelRange(size_t n, size_t parallelism,
                               const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (parallelism == 0) parallelism = workers_.size() + 1;  // + the caller
  const size_t chunks = std::min(parallelism, n);
  if (chunks <= 1 || tl_in_pool_task) {
    fn(0, n);
    return;
  }

  // Balanced contiguous bounds: chunk c covers [c*n/chunks, (c+1)*n/chunks),
  // so sizes differ by at most one — no empty tail ranges when n is barely
  // above the chunk count.
  auto chunk_begin = [n, chunks](size_t c) { return c * n / chunks; };

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    std::exception_ptr error;  // first one wins
  } state;
  state.remaining = chunks - 1;

  auto record_error = [&state](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.error) state.error = std::move(e);
  };

  // Chunk tasks never let an exception escape into a worker loop or a
  // stealing caller: the error is parked in the shared state and the chunk
  // still counts down, so the owning caller always reaches remaining == 0
  // before unwinding (the state and fn live on its stack).
  for (size_t c = 1; c < chunks; ++c) {
    const size_t begin = chunk_begin(c);
    const size_t end = chunk_begin(c + 1);
    PushTask([&fn, &state, &record_error, begin, end] {
      try {
        ScopedInPoolTask guard;
        fn(begin, end);
      } catch (...) {
        record_error(std::current_exception());
      }
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.remaining == 0) state.cv.notify_all();
    });
  }

  // The caller takes the first chunk, then helps drain the deques until the
  // whole range has completed — so the range finishes even if every worker
  // is busy elsewhere (or the pool has a single worker).
  try {
    ScopedInPoolTask guard;
    fn(0, chunk_begin(1));
  } catch (...) {
    record_error(std::current_exception());
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.remaining == 0) break;
    }
    // Every queued task is some range's chunk, and chunks self-catch.
    if (RunOneTask(0)) continue;
    std::unique_lock<std::mutex> lock(state.mu);
    if (state.remaining == 0) break;
    // In-flight chunks are running on workers; wake on completion, with a
    // timeout to re-scan for newly stealable tasks.
    state.cv.wait_for(lock, std::chrono::milliseconds(1),
                      [&] { return state.remaining == 0; });
    if (state.remaining == 0) break;
  }
  if (state.error) std::rethrow_exception(state.error);
}

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 size_t num_threads) {
  if (n == 0) return;
  if (n == 1 || num_threads == 1) {
    fn(0, n);
    return;
  }
  ThreadPool::Instance().ParallelRange(n, num_threads, fn);
}

}  // namespace util
}  // namespace lccs
