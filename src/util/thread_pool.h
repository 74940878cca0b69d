#ifndef LCCS_UTIL_THREAD_POOL_H_
#define LCCS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lccs {
namespace util {

/// Lazily-initialized persistent fork-join pool. Workers are spawned once
/// (on first use) and live for the process, so small parallel batches stop
/// paying std::thread creation/join latency on every call — the old
/// ParallelFor spawned fresh threads per invocation, which dominated
/// AnnIndex::QueryBatch at batch sizes 1–64.
///
/// Every entry is a ParallelRange: the range is one job on a single
/// mutex-guarded FIFO, and workers claim its chunks in order. The caller
/// claims chunks of its own range only — never another caller's — so a
/// serving window cannot end up running a consolidation's chunk, and the
/// range still completes when every worker is busy elsewhere (the pool works
/// even with a single hardware thread).
///
/// Worker count defaults to std::thread::hardware_concurrency() and can be
/// pinned with the LCCS_POOL_WORKERS environment variable (read once, at
/// first use).
class ThreadPool {
 public:
  /// The process-wide pool. Constructed on first call.
  static ThreadPool& Instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  size_t num_workers() const { return threads_.size(); }

  /// Chunked-range submit: splits [0, n) into min(parallelism, n) balanced
  /// contiguous chunks (sizes differ by at most one — no empty tail ranges)
  /// and runs fn(begin, end) once per chunk. The caller executes chunks too,
  /// so at most `parallelism` threads touch the range at once;
  /// parallelism == 0 means workers + caller. Blocks until every chunk has
  /// finished. Calls from inside a pool task run fn(0, n) inline — nested
  /// parallelism never deadlocks, it just serializes. If fn throws, the
  /// range still runs to completion and the first exception is rethrown to
  /// the caller once no chunk references it anymore.
  void ParallelRange(size_t n, size_t parallelism,
                     const std::function<void(size_t, size_t)>& fn);

 private:
  struct Job;

  explicit ThreadPool(size_t num_workers);
  void WorkerLoop();
  /// Claims the next chunk of `job` (mu_ held via `lock`), runs it with mu_
  /// released, and records its completion. Returns with mu_ held.
  void RunChunk(Job& job, std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // a job was queued, or stop_
  std::condition_variable done_cv_;  // some job's last chunk finished
  std::deque<Job*> queue_;           // jobs with unclaimed chunks, FIFO
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(begin, end) over [0, n) split into contiguous chunks across up to
/// `num_threads` threads of the persistent pool (hardware concurrency when
/// 0). Thin wrapper over ThreadPool::ParallelRange — same signature as the
/// old spawn-per-call implementation, so the embarrassingly parallel offline
/// work (ground-truth computation, bulk hashing) and the batched query
/// engine (AnnIndex::QueryBatch) speed up without caller changes. Per-query
/// latency figures in the paper remain single-thread: sequential Query calls
/// never go through here.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 size_t num_threads = 0);

}  // namespace util
}  // namespace lccs

#endif  // LCCS_UTIL_THREAD_POOL_H_
