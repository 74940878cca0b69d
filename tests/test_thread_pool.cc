#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lccs {
namespace util {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroElementsIsNoop) {
  bool called = false;
  ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadPath) {
  std::atomic<size_t> total{0};
  ParallelFor(
      100, [&](size_t begin, size_t end) { total.fetch_add(end - begin); },
      1);
  EXPECT_EQ(total.load(), 100u);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<size_t> total{0};
  ParallelFor(
      3, [&](size_t begin, size_t end) { total.fetch_add(end - begin); }, 16);
  EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelForTest, ChunksAreContiguousAndOrdered) {
  constexpr size_t kN = 1000;
  std::vector<int> owner(kN, -1);
  std::atomic<int> next_chunk{0};
  ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        const int chunk = next_chunk.fetch_add(1);
        for (size_t i = begin; i < end; ++i) owner[i] = chunk;
      },
      4);
  // Every index assigned, and each chunk's indices are contiguous.
  for (size_t i = 0; i < kN; ++i) ASSERT_NE(owner[i], -1);
  for (size_t i = 1; i < kN; ++i) {
    if (owner[i] != owner[i - 1]) {
      // Chunk boundary: the previous chunk must never reappear.
      for (size_t j = i + 1; j < kN; ++j) {
        EXPECT_NE(owner[j], owner[i - 1]);
      }
    }
  }
}

TEST(ParallelForTest, BalancedChunkingNoEmptyRanges) {
  // n slightly above the thread count used to leave trailing workers with
  // empty ranges (ceil-chunking); balanced bounds give every chunk either
  // floor(n/chunks) or ceil(n/chunks) indices.
  constexpr size_t kN = 10;
  constexpr size_t kThreads = 8;
  std::mutex mu;
  std::vector<size_t> sizes;
  ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        sizes.push_back(end - begin);
      },
      kThreads);
  ASSERT_EQ(sizes.size(), kThreads);
  size_t total = 0, smallest = kN, largest = 0;
  for (const size_t s : sizes) {
    EXPECT_GE(s, 1u) << "empty chunk";
    total += s;
    smallest = std::min(smallest, s);
    largest = std::max(largest, s);
  }
  EXPECT_EQ(total, kN);
  EXPECT_LE(largest - smallest, 1u);
}

TEST(ThreadPoolTest, InstanceIsPersistent) {
  ThreadPool& a = ThreadPool::Instance();
  ThreadPool& b = ThreadPool::Instance();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 100;
  std::atomic<size_t> total{0};
  ParallelFor(kOuter, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(kInner, [&](size_t b, size_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromExternalThreads) {
  constexpr size_t kCallers = 4;
  constexpr size_t kN = 5000;
  std::vector<std::atomic<size_t>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&totals, c] {
      ParallelFor(kN, [&totals, c](size_t begin, size_t end) {
        totals[c].fetch_add(end - begin);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c].load(), kN) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ExceptionInChunkPropagatesAfterRangeCompletes) {
  constexpr size_t kN = 64;
  std::atomic<size_t> visited{0};
  EXPECT_THROW(
      ParallelFor(
          kN,
          [&](size_t begin, size_t end) {
            visited.fetch_add(end - begin);
            if (begin == 0) throw std::runtime_error("chunk failed");
          },
          4),
      std::runtime_error);
  // Every chunk still ran (the range completes before the rethrow), and the
  // pool stays usable afterwards.
  EXPECT_EQ(visited.load(), kN);
  std::atomic<size_t> total{0};
  ParallelFor(kN, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), kN);
}

TEST(ThreadPoolTest, ManySmallBatchesReusePool) {
  // The spawn-per-call model paid thread creation on each of these; the
  // persistent pool must grind through thousands of tiny ranges quickly and
  // correctly.
  std::atomic<size_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    ParallelFor(3, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 6000u);
}

// Set on the thread that runs range B in CallerRunsOnlyItsOwnRange.
thread_local bool tl_is_caller_b = false;

TEST(ThreadPoolTest, CallerRunsOnlyItsOwnRange) {
  // Range A occupies every worker and its own caller with chunks that block
  // until released, and still has chunks queued. Range B, submitted from a
  // second thread, must then complete on B's caller alone: a caller that
  // picks up A's queued chunks would stall behind A.
  const size_t workers = ThreadPool::Instance().num_workers();
  const size_t a_chunks = 4 * workers + 8;
  const size_t b_chunks = 2 * workers + 2;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<size_t> a_started{0};
  std::atomic<bool> a_ran_on_b{false};
  std::thread a([&] {
    ParallelFor(
        a_chunks,
        [&](size_t, size_t) {
          if (tl_is_caller_b) a_ran_on_b.store(true);
          a_started.fetch_add(1);
          released.wait();
        },
        a_chunks);
  });
  const auto start_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (a_started.load() < workers + 1 &&
         std::chrono::steady_clock::now() < start_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(a_started.load(), workers + 1);

  std::atomic<size_t> b_total{0};
  std::promise<void> b_done;
  std::future<void> b_finished = b_done.get_future();
  std::thread b([&] {
    tl_is_caller_b = true;
    ParallelFor(
        b_chunks,
        [&](size_t begin, size_t end) { b_total.fetch_add(end - begin); },
        b_chunks);
    b_done.set_value();
  });
  const bool b_in_time = b_finished.wait_for(std::chrono::seconds(3)) ==
                         std::future_status::ready;
  release.set_value();
  b.join();
  a.join();
  EXPECT_TRUE(b_in_time) << "range B stalled behind range A";
  EXPECT_FALSE(a_ran_on_b.load()) << "B's caller ran a chunk of range A";
  EXPECT_EQ(b_total.load(), b_chunks);
  EXPECT_EQ(a_started.load(), a_chunks);
}

}  // namespace
}  // namespace util
}  // namespace lccs
