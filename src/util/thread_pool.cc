#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace lccs {
namespace util {

namespace {

// Set while a thread is executing a pool chunk (worker or caller). Nested
// ParallelRange calls from such a thread run inline instead of re-entering
// the pool, so nesting can never deadlock.
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

// One ParallelRange call. It lives on the caller's stack; every field is
// guarded by the pool's mu_, and the caller returns only once `unfinished`
// reaches zero, after which no other thread touches it.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>& fn;
  size_t n;
  size_t chunks;
  size_t next;               // first unclaimed chunk
  size_t unfinished;         // chunks not yet finished
  std::exception_ptr error;  // first one wins
};

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(DefaultWorkerCount());
  return pool;
}

ThreadPool::ThreadPool(size_t num_workers) {
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::RunChunk(Job& job, std::unique_lock<std::mutex>& lock) {
  const size_t c = job.next++;
  // Its last chunk claimed, the job leaves the queue: nobody else may reach
  // it through queue_ once its caller can return.
  if (job.next == job.chunks) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
  }
  lock.unlock();
  // Balanced contiguous bounds: chunk c covers [c*n/chunks, (c+1)*n/chunks),
  // so sizes differ by at most one — no empty tail ranges when n is barely
  // above the chunk count.
  std::exception_ptr error;
  try {
    ScopedInPoolTask guard;
    job.fn(c * job.n / job.chunks, (c + 1) * job.n / job.chunks);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !job.error) job.error = std::move(error);
  // Notified under mu_: the caller cannot observe unfinished == 0, return
  // and free the job before this thread is done with it.
  if (--job.unfinished == 0) done_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    RunChunk(*queue_.front(), lock);
  }
}

void ThreadPool::ParallelRange(size_t n, size_t parallelism,
                               const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (parallelism == 0) parallelism = threads_.size() + 1;  // + the caller
  const size_t chunks = std::min(parallelism, n);
  if (chunks <= 1 || tl_in_pool_task) {
    fn(0, n);
    return;
  }

  Job job{fn, n, chunks, 0, chunks, nullptr};
  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(&job);
  // One wakeup call for every idle worker: a worker that finds nothing left
  // to claim goes back to sleep, which is cheaper for the caller than one
  // notify per chunk.
  work_cv_.notify_all();
  // Claim this range's chunks alongside the workers — and no other range's,
  // so the caller's latency never includes a stranger's chunk.
  while (job.next < job.chunks) RunChunk(job, lock);
  done_cv_.wait(lock, [&job] { return job.unfinished == 0; });
  lock.unlock();
  if (job.error) std::rethrow_exception(job.error);
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
