// ThreadPool contracts the block executor leans on: every index runs
// exactly once under any worker count, worker ids are dense and in range,
// exceptions propagate to the caller (instead of terminating), and nested
// parallel_for runs inline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace cqs {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (const std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(count, [&](std::size_t i, std::size_t worker) {
        EXPECT_LT(worker, threads);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCallerAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, std::size_t) {
                          ++executed;
                          if (i == 37) {
                            throw std::runtime_error("iteration 37 failed");
                          }
                        }),
      std::runtime_error);
  // Other claimed iterations still ran; only the thrower's chunk tail is
  // skipped, so most of the range executed.
  EXPECT_GT(executed.load(), 0);

  // The pool must be fully reusable after a failed job.
  std::atomic<int> after{0};
  pool.parallel_for(50, [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsWins) {
  ThreadPool pool(4);
  // Every iteration throws; exactly one exception reaches the caller and
  // the job still drains (no hang, no terminate).
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i, std::size_t) {
                                   throw std::runtime_error(
                                       "fail " + std::to_string(i));
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorker) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t, std::size_t outer_worker) {
    // Reentrant call from a worker thread: must run inline (serially,
    // same worker id) instead of deadlocking on the shared job slot.
    pool.parallel_for(16, [&](std::size_t, std::size_t inner_worker) {
      EXPECT_EQ(inner_worker, outer_worker);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t, std::size_t) {
                          pool.parallel_for(4, [&](std::size_t j,
                                                   std::size_t) {
                            if (j == 2) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
  std::atomic<int> after{0};
  pool.parallel_for(10, [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

}  // namespace
}  // namespace cqs
