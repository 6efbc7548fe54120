// Workload-generator determinism and shape: same seed must reproduce the
// request stream and arrival schedule byte-for-byte (the property the
// serving acceptance criterion — "same seed reproduces hit-rate exactly" —
// rests on), and the Zipfian skew / Poisson arrivals must have the
// advertised structure.

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "workload/synthetic_workload.h"

namespace qbs {
namespace {

WorkloadOptions SmallWorkload() {
  WorkloadOptions options;
  options.num_queries = 2000;
  options.num_distinct_pairs = 50;
  options.zipf_s = 1.0;
  options.seed = 7;
  return options;
}

TEST(SyntheticWorkloadTest, SameSeedReproducesTheStreamExactly) {
  const Graph g = BarabasiAlbert(500, 3, 11);
  const auto options = SmallWorkload();
  const auto first = GenerateWorkload(g, options);
  const auto second = GenerateWorkload(g, options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].request, second[i].request) << i;
    EXPECT_EQ(first[i].arrival_ns, second[i].arrival_ns) << i;
  }
}

TEST(SyntheticWorkloadTest, DifferentSeedsDiffer) {
  const Graph g = BarabasiAlbert(500, 3, 11);
  auto options = SmallWorkload();
  const auto first = GenerateWorkload(g, options);
  options.seed = 8;
  const auto second = GenerateWorkload(g, options);
  ASSERT_EQ(first.size(), second.size());
  bool any_difference = false;
  for (size_t i = 0; i < first.size() && !any_difference; ++i) {
    any_difference = !(first[i].request == second[i].request);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyntheticWorkloadTest, ClosedLoopHasZeroArrivals) {
  const Graph g = BarabasiAlbert(300, 3, 11);
  auto options = SmallWorkload();
  options.arrival_rate_qps = 0.0;
  for (const auto& q : GenerateWorkload(g, options)) {
    EXPECT_EQ(q.arrival_ns, 0u);
  }
}

TEST(SyntheticWorkloadTest, OpenLoopArrivalsAreMonotone) {
  const Graph g = BarabasiAlbert(300, 3, 11);
  auto options = SmallWorkload();
  options.arrival_rate_qps = 5000.0;
  options.burst_factor = 4.0;
  const auto queries = GenerateWorkload(g, options);
  uint64_t prev = 0;
  uint64_t last = 0;
  for (const auto& q : queries) {
    EXPECT_GE(q.arrival_ns, prev);
    prev = q.arrival_ns;
    last = q.arrival_ns;
  }
  EXPECT_GT(last, 0u);
  // Sanity: the schedule spans roughly num_queries / mean_rate seconds —
  // allow a generous factor for burst phases and randomness.
  const double span_s = static_cast<double>(last) * 1e-9;
  const double nominal_s =
      static_cast<double>(options.num_queries) / options.arrival_rate_qps;
  EXPECT_LT(span_s, nominal_s * 3.0);
  EXPECT_GT(span_s, nominal_s / 10.0);
}

// At 1e-12 q/s the first arrival lies ~10^21 ns out, past what
// std::chrono::nanoseconds holds: every arrival is capped there, in order.
TEST(SyntheticWorkloadTest, TinyRateArrivalsAreCapped) {
  const Graph g = BarabasiAlbert(300, 3, 11);
  auto options = SmallWorkload();
  options.num_queries = 100;
  options.arrival_rate_qps = 1e-12;
  const uint64_t cap = std::chrono::nanoseconds::max().count();
  uint64_t prev = 0;
  for (const auto& q : GenerateWorkload(g, options)) {
    EXPECT_GE(q.arrival_ns, prev);
    EXPECT_LE(q.arrival_ns, cap);
    prev = q.arrival_ns;
  }
  EXPECT_EQ(prev, cap);
}

TEST(SyntheticWorkloadTest, ZipfSkewMakesRankZeroHottest) {
  const Graph g = BarabasiAlbert(500, 3, 11);
  auto options = SmallWorkload();
  options.num_queries = 20000;
  options.zipf_s = 1.2;
  const auto universe = WorkloadUniverse(g, options);
  ASSERT_FALSE(universe.empty());
  const auto queries = GenerateWorkload(g, options);

  std::map<std::pair<VertexId, VertexId>, size_t> counts;
  for (const auto& q : queries) counts[{q.request.u, q.request.v}]++;
  const auto hottest = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  // The most frequent pair in the stream is the rank-0 pair of the
  // universe, and it dominates the uniform share by a wide margin.
  EXPECT_EQ(hottest->first.first, universe[0].u);
  EXPECT_EQ(hottest->first.second, universe[0].v);
  EXPECT_GT(hottest->second,
            4 * options.num_queries / options.num_distinct_pairs);
}

TEST(SyntheticWorkloadTest, UniversePairsAreValidAndDistinctEndpoints) {
  const Graph g = BarabasiAlbert(200, 3, 11);
  auto options = SmallWorkload();
  for (const auto& p : WorkloadUniverse(g, options)) {
    EXPECT_LT(p.u, g.NumVertices());
    EXPECT_LT(p.v, g.NumVertices());
    EXPECT_NE(p.u, p.v);
  }
}

TEST(SyntheticWorkloadTest, UniverseIsIndependentOfQueryCount) {
  // Growing the stream must not reshuffle which pairs are hot — otherwise
  // short smoke runs and long bench runs would disagree about the universe.
  const Graph g = BarabasiAlbert(500, 3, 11);
  auto options = SmallWorkload();
  const auto universe_small = WorkloadUniverse(g, options);
  options.num_queries *= 10;
  const auto universe_large = WorkloadUniverse(g, options);
  ASSERT_EQ(universe_small.size(), universe_large.size());
  for (size_t i = 0; i < universe_small.size(); ++i) {
    EXPECT_EQ(universe_small[i].u, universe_large[i].u) << i;
    EXPECT_EQ(universe_small[i].v, universe_large[i].v) << i;
  }
}

TEST(SyntheticWorkloadTest, OptionsAreStampedIntoEveryRequest) {
  const Graph g = BarabasiAlbert(200, 3, 11);
  auto options = SmallWorkload();
  options.mode = QueryMode::kDistance;
  options.budget = 6;
  options.flags = kQueryFlagNoCache;
  for (const auto& q : GenerateWorkload(g, options)) {
    EXPECT_EQ(q.request.mode, QueryMode::kDistance);
    EXPECT_EQ(q.request.budget, 6u);
    EXPECT_EQ(q.request.flags, kQueryFlagNoCache);
  }
}

}  // namespace
}  // namespace qbs
