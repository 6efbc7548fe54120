// server/latency_histogram.h: bucket edges, quantiles, and — the reason
// this file exists — the Snapshot ordering contract: total_nanos_ is
// written with release and read with acquire BEFORE the bucket loads, so a
// snapshot can never observe a total that includes samples whose bucket
// increments it missed (count >= samples summed into total). Verified here
// by hammering Record from many threads while snapshotting concurrently.

#include "server/latency_histogram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace qbs::server {
namespace {

TEST(LatencyHistogramTest, BucketsAndQuantilesSingleThread) {
  LatencyHistogram h;
  h.Record(0);     // bucket 0: [0, 2)
  h.Record(1);     // bucket 0
  h.Record(2);     // bucket 1: [2, 4)
  h.Record(1000);  // bucket 9: [512, 1024)
  const auto snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.total_nanos, 1003u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[9], 1u);
  // p0 lands in bucket 0 (upper edge 1 ns); p100 in bucket 9 (edge 1023).
  EXPECT_EQ(snap.QuantileNanos(0.0), 1u);
  EXPECT_EQ(snap.QuantileNanos(1.0), 1023u);
  EXPECT_NEAR(snap.MeanMillis(), 1003.0 / 4 / 1e6, 1e-12);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram h;
  const auto snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.QuantileNanos(0.99), 0u);
  EXPECT_EQ(snap.MeanMillis(), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentSnapshotsNeverOvercountTotal) {
  // Every sample has the same value, so the ordering contract becomes an
  // exact arithmetic invariant: any snapshot must satisfy
  // total_nanos <= count * kSample — i.e. every nanosecond in the total is
  // backed by a visible bucket increment. A racy (relaxed-load-buckets-
  // first) snapshot can violate this; the acquire/release pairing may not.
  constexpr uint64_t kSample = 1000;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  LatencyHistogram h;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(kSample);
    });
  }

  uint64_t last_count = 0;
  uint64_t snapshots_taken = 0;
  std::thread reader([&] {
    // do-while: on a loaded host the writers can finish before this thread
    // is first scheduled, and the reader must still take a snapshot.
    do {
      const auto snap = h.GetSnapshot();
      ASSERT_LE(snap.total_nanos, snap.count * kSample);
      // Counts are monotone across snapshots from one reader.
      ASSERT_GE(snap.count, last_count);
      last_count = snap.count;
      ++snapshots_taken;
    } while (!done.load(std::memory_order_acquire));
  });

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots_taken, 0u);

  // All writers joined: the final snapshot is exact.
  const auto snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.total_nanos, uint64_t{kThreads} * kPerThread * kSample);
}

}  // namespace
}  // namespace qbs::server
