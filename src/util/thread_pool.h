#ifndef LCCS_UTIL_THREAD_POOL_H_
#define LCCS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace lccs {
namespace util {

/// Lazily-initialized persistent work-stealing thread pool. Workers are
/// spawned once (on first use) and live for the process, so small parallel
/// batches stop paying std::thread creation/join latency on every call —
/// the old ParallelFor spawned fresh threads per invocation, which dominated
/// AnnIndex::QueryBatch at batch sizes 1–64.
///
/// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
/// steals FIFO from the other workers when idle. Submitting threads also
/// participate: ParallelRange runs chunks on the caller and lets it steal
/// until the range completes, so progress never depends on pool capacity
/// (the pool works even with a single hardware thread).
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

  size_t num_workers() const { return workers_.size(); }

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
  struct Worker;

  explicit ThreadPool(size_t num_workers);
  void WorkerLoop(size_t index);
  /// Enqueues one task, round-robin across worker deques, and wakes the
  /// target worker.
  void PushTask(std::function<void()> task);
  /// Pops one task — the home deque first (LIFO), then steals from the
  /// other deques (FIFO) — and runs it. Returns false if every deque was
  /// empty.
  bool RunOneTask(size_t home_index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_submit_{0};
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
