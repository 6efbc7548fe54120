#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qbs {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(hits.size(), 8,
              [&](size_t i, size_t) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerIndexInRange) {
  std::atomic<bool> ok{true};
  ParallelFor(100, 3, [&](size_t, size_t worker) {
    if (worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ParallelFor(0, 4, [](size_t, size_t) { FAIL(); });
}

TEST(WallTimerTest, Monotonic) {
  WallTimer t;
  const int64_t a = t.ElapsedNanos();
  const int64_t b = t.ElapsedNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

}  // namespace
}  // namespace qbs
