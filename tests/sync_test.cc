// util/sync.h: the annotated Mutex/SharedMutex/CondVar wrappers and the
// lock-rank runtime checker. The static half of the contract (unguarded
// access fails to compile under clang -Wthread-safety) is covered by the
// tests/compile_fail harness; this file covers runtime behaviour: mutual
// exclusion, shared readers, condition signalling, and the death tests for
// rank inversion / re-entrant acquisition.

#include "util/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace qbs {
namespace {

TEST(SyncTest, MutexSerializesIncrements) {
  Mutex mu;
  int counter QBS_GUARDED_BY(mu) = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncTest, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mu;
  {
    MutexLock lock(mu);
    // From another thread: the lock is held, so TryLock must fail.
    bool acquired = true;
    std::thread t([&mu, &acquired] { acquired = mu.TryLock(); });
    t.join();
    EXPECT_FALSE(acquired);
  }
  std::thread t([&mu] {
    ASSERT_TRUE(mu.TryLock());
    mu.Unlock();
  });
  t.join();
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  std::atomic<int> readers_in{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      ReaderLock lock(mu);
      readers_in.fetch_add(1);
      // Hold the shared lock until both readers are inside simultaneously.
      while (!release.load()) {
        std::this_thread::yield();
        if (readers_in.load() == 2) release.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(readers_in.load(), 2);
}

TEST(SyncTest, WriterExcludesReadersAndWriters) {
  SharedMutex mu;
  WriterLock lock(mu);
  bool got_shared = true;
  bool got_exclusive = true;
  std::thread t([&] {
    got_shared = mu.TryLockShared();
    if (got_shared) mu.UnlockShared();
    got_exclusive = mu.TryLock();
    if (got_exclusive) mu.Unlock();
  });
  t.join();
  EXPECT_FALSE(got_shared);
  EXPECT_FALSE(got_exclusive);
}

TEST(SyncTest, ReaderExcludesWriterButNotReader) {
  SharedMutex mu;
  ReaderLock lock(mu);
  bool got_shared = false;
  bool got_exclusive = true;
  std::thread t([&] {
    got_exclusive = mu.TryLock();
    if (got_exclusive) mu.Unlock();
    got_shared = mu.TryLockShared();
    if (got_shared) mu.UnlockShared();
  });
  t.join();
  EXPECT_FALSE(got_exclusive);
  EXPECT_TRUE(got_shared);
}

TEST(SyncTest, CondVarHandshake) {
  Mutex mu;
  CondVar cv;
  bool ready QBS_GUARDED_BY(mu) = false;
  bool consumed QBS_GUARDED_BY(mu) = false;

  std::thread producer([&] {
    {
      MutexLock lock(mu);
      ready = true;
      cv.NotifyAll();
      while (!consumed) cv.Wait(mu);
    }
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    consumed = true;
    cv.NotifyAll();
  }
  producer.join();
  MutexLock lock(mu);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(consumed);
}

TEST(SyncTest, CondVarWaitUntilTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  // Nobody notifies: the wait must return false at the deadline (spurious
  // wakeups may return true early, so loop like real call sites do).
  while (cv.WaitUntil(mu, deadline)) {
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(SyncTest, AscendingRankAcquisitionIsClean) {
  // The full project order, outermost to innermost — must not abort.
  Mutex lifecycle(LockRank::kServerLifecycle);
  Mutex admission(LockRank::kAdmission);
  SharedMutex index(LockRank::kIndex);
  Mutex pool(LockRank::kSearcherPool);
  Mutex shard(LockRank::kResultCacheShard);
  MutexLock l1(lifecycle);
  MutexLock l2(admission);
  ReaderLock l3(index);
  MutexLock l4(pool);
  MutexLock l5(shard);
  SUCCEED();
}

TEST(SyncTest, LockRankNamesAreStable) {
  EXPECT_STREQ(LockRankName(LockRank::kIndex), "kIndex");
  EXPECT_STREQ(LockRankName(LockRank::kThreadPool), "kThreadPool");
}

// ---- Death tests: the lock-rank checker must abort, naming both ranks.

class LockRankDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!LockRankChecksEnabled()) {
      GTEST_SKIP() << "lock-rank checks compiled out (NDEBUG without "
                      "QBS_LOCK_RANK_CHECKS)";
    }
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockRankDeathTest, InversionAborts) {
  EXPECT_DEATH(
      {
        Mutex high(LockRank::kResultCacheShard);
        Mutex low(LockRank::kAdmission);
        MutexLock outer(high);
        MutexLock inner(low);  // rank 20 under rank 50: inversion
      },
      "lock-rank inversion.*kAdmission.*kResultCacheShard");
}

TEST_F(LockRankDeathTest, EqualRankAborts) {
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kResultCacheShard);
        Mutex b(LockRank::kResultCacheShard);
        MutexLock outer(a);
        MutexLock inner(b);  // equal rank: order must be STRICTLY increasing
      },
      "lock-rank inversion.*kResultCacheShard.*kResultCacheShard");
}

TEST_F(LockRankDeathTest, SharedUnderExclusiveSameRankAborts) {
  EXPECT_DEATH(
      {
        SharedMutex a(LockRank::kIndex);
        SharedMutex b(LockRank::kIndex);
        WriterLock outer(a);
        ReaderLock inner(b);
      },
      "lock-rank inversion.*kIndex.*kIndex");
}

TEST_F(LockRankDeathTest, ReentrantMutexAborts) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kThreadPool);
        MutexLock outer(mu);
        MutexLock inner(mu);  // same mutex twice on one thread
      },
      "re-entrant acquisition.*kThreadPool");
}

TEST_F(LockRankDeathTest, ReentrantSharedAborts) {
  // Re-acquiring a shared lock on the same thread can deadlock against a
  // queued writer, so the checker treats it like exclusive re-entrancy.
  EXPECT_DEATH(
      {
        SharedMutex mu(LockRank::kIndex);
        ReaderLock outer(mu);
        ReaderLock inner(mu);
      },
      "re-entrant acquisition.*kIndex");
}

TEST_F(LockRankDeathTest, UnrankedSkipsOrderCheckButNotReentrancy) {
  {
    // Unranked mutexes may interleave with ranked ones in any order...
    Mutex ranked(LockRank::kThreadPool);
    Mutex unranked;
    MutexLock outer(ranked);
    MutexLock inner(unranked);
  }
  // ...but re-entrancy still aborts.
  EXPECT_DEATH(
      {
        Mutex mu;
        MutexLock outer(mu);
        MutexLock inner(mu);
      },
      "re-entrant acquisition.*kUnranked");
}

}  // namespace
}  // namespace qbs
