#include "util/thread_pool.h"

#include <atomic>
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

}  // namespace
}  // namespace util
}  // namespace lccs
