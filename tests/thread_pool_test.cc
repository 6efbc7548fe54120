#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace qbs {
namespace {

TEST(ParallelForGrainTest, SkewedIterationCostsCoverAllIndices) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, 6, [&](size_t i, size_t worker) {
    ASSERT_LT(worker, 6u);
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForGrainTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  ParallelFor(8, 4, [&](size_t, size_t) {
    ParallelFor(16, 2, [&](size_t, size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForGrainTest, WorkerIndicesAreExclusive) {
  // Two iterations sharing a worker index must never run concurrently:
  // per-worker scratch (BFS depth arrays, batch searchers) relies on it.
  // 30 iterations on 4 workers make the automatic grain 1.
  constexpr size_t kWorkers = 4;
  std::atomic<int> in_flight[kWorkers] = {};
  std::atomic<bool> ok{true};
  ParallelFor(30, kWorkers, [&](size_t, size_t worker) {
    if (in_flight[worker].fetch_add(1) != 0) ok = false;
    std::this_thread::yield();
    in_flight[worker].fetch_sub(1);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForGrainTest, ConcurrentCallersShareThePool) {
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&total] {
      ParallelFor(100, 3, [&](size_t, size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 300);
}

// The caller's own iteration throws while helpers still hold claimed
// chunks: the exception must reach the caller only after every helper has
// left the call, and no chunk may be handed out after the throw.
TEST(ParallelForGrainTest, ThrowOnCallerReachesCaller) {
  constexpr size_t kCount = 200;  // automatic grain 6 on 4 workers
  std::atomic<bool> thrown{false};
  std::atomic<int> in_flight{0};
  std::atomic<size_t> ran{0};
  try {
    ParallelFor(kCount, 4, [&](size_t, size_t worker) {
      if (worker == 0) {
        while (in_flight.load() == 0) std::this_thread::yield();
        thrown = true;
        throw std::runtime_error("caller");
      }
      in_flight.fetch_add(1);
      while (!thrown.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
      in_flight.fetch_sub(1);
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LT(ran.load(), kCount);
}

// A helper's iteration throws: the exception must reach the caller instead
// of escaping the helper thread.
TEST(ParallelForGrainTest, ThrowOnHelperReachesCaller) {
  std::atomic<bool> thrown{false};
  try {
    ParallelFor(64, 4, [&](size_t, size_t worker) {
      if (worker != 0) {
        thrown = true;
        throw std::runtime_error("helper");
      }
      while (!thrown.load()) std::this_thread::yield();
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper");
  }
  // The pool still serves calls afterwards.
  std::atomic<int> total{0};
  ParallelFor(100, 4, [&](size_t, size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace qbs
