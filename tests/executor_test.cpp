// The process-wide intra-frame executor (common/executor.hpp): every index
// runs exactly once, concurrent and nested callers complete, the first task
// exception reaches the caller only after every running task finished, and
// n == 1 stays on the calling thread. The pool size comes from
// ESCA_COMPUTE_THREADS, so the CI stress step runs these under the
// sanitizers with a real four-thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/executor.hpp"

namespace esca {
namespace {

/// Run parallel_for(n) and return how often each index ran.
std::vector<int> hit_counts(int n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  std::vector<int> out;
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(ExecutorTest, EveryIndexRunsExactlyOnce) {
  const int pool = intra_frame_threads();
  ASSERT_GE(pool, 1);
  for (const int n : {0, 1, 2, pool, 3 * pool}) {
    EXPECT_EQ(hit_counts(n), std::vector<int>(static_cast<std::size_t>(n), 1)) << "n=" << n;
  }
}

TEST(ExecutorTest, ChunkedRangesCoverEveryIndexExactlyOnce) {
  constexpr std::size_t kChunk = 7;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk,
                              3 * kChunk + 1}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> ranges{0};
    parallel_for_chunks(n, kChunk, [&](std::size_t begin, std::size_t end) {
      EXPECT_EQ(begin % kChunk, 0U);
      EXPECT_LT(begin, end);
      EXPECT_LE(end - begin, kChunk);
      ranges.fetch_add(1);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    EXPECT_EQ(ranges.load(), chunk_count(n, kChunk)) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ExecutorTest, ConcurrentCallersAllComplete) {
  const int n = 2 * intra_frame_threads() + 1;
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 50;
  std::vector<int> complete(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        if (hit_counts(n) == std::vector<int>(static_cast<std::size_t>(n), 1)) {
          ++complete[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(complete, std::vector<int>(kCallers, kCallsPerCaller));
}

TEST(ExecutorTest, NestedCallFromInsideATaskCompletes) {
  const int n = intra_frame_threads() + 1;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n * n));
  parallel_for(n, [&](int i) {
    parallel_for(n, [&](int j) { hits[static_cast<std::size_t>(i * n + j)].fetch_add(1); });
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, FirstExceptionIsRethrownAfterRunningTasksFinish) {
  const int pool = intra_frame_threads();
  const int n = std::max(pool, 2);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  const auto task = [&](int i) {
    if (i == 0) {
      // With helpers, wait (bounded) until another index is running, so the
      // rethrow provably has a task to wait for.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (pool > 1 && started.load() == 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      throw std::runtime_error("task 0 failed");
    }
    started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished.fetch_add(1);
  };
  EXPECT_THROW(parallel_for(n, task), std::runtime_error);
  EXPECT_EQ(finished.load(), started.load());
  if (pool > 1) {
    EXPECT_GE(started.load(), 1);
  }
  // The executor is healthy afterwards.
  EXPECT_EQ(hit_counts(3 * pool), std::vector<int>(static_cast<std::size_t>(3 * pool), 1));
}

TEST(ExecutorTest, SingleIndexRunsOnTheCallingThread) {
  std::thread::id ran_on;
  parallel_for(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

}  // namespace
}  // namespace esca
