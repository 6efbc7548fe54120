#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "gen/generators.h"
#include "graph/spg.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace qbs {
namespace {

// Figure 1 of the paper: three pairs at distance 3 with 1, 3, and 7
// shortest paths — indistinguishable by distance, distinguished by their
// shortest path graphs.
TEST(SpgAnalysisTest, Figure1SinglePath) {
  Graph g = PathGraph(4);
  const auto spg = SpgByDoubleBfs(g, 0, 3);
  EXPECT_EQ(spg.distance, 3u);
  EXPECT_EQ(spg.CountShortestPaths(), 1u);
  EXPECT_EQ(spg.edges.size(), 3u);
}

TEST(SpgAnalysisTest, Figure1ThreePaths) {
  // u - {a, b} - {c} layered plus a second branch: build a graph with
  // exactly 3 shortest u-v paths of length 3.
  // u=0, v=5; middle layers {1,2} and {3,4}; edges chosen for 3 paths:
  // 0-1-3-5, 0-2-3-5, 0-2-4-5.
  Graph g = Graph::FromEdges(
      6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5}, {4, 5}});
  const auto spg = SpgByDoubleBfs(g, 0, 5);
  EXPECT_EQ(spg.distance, 3u);
  EXPECT_EQ(spg.CountShortestPaths(), 3u);
}

TEST(SpgAnalysisTest, Figure1SevenPaths) {
  // Dense layering: 0 - {1,2,3} - {4,5} - 9 with 7 of the 3*2 + 1 possible
  // combinations wired: edges give 1*2 + 2*2 + 1 = 7 paths.
  Graph g = Graph::FromEdges(10, {{0, 1},
                                  {0, 2},
                                  {0, 3},
                                  {1, 4},
                                  {1, 5},
                                  {2, 4},
                                  {2, 5},
                                  {3, 4},
                                  {4, 9},
                                  {5, 9}});
  const auto spg = SpgByDoubleBfs(g, 0, 9);
  EXPECT_EQ(spg.distance, 3u);
  // Paths: via 1: 1-4, 1-5; via 2: 2-4, 2-5; via 3: 3-4 => 5... count
  // exactly: 0-1-4-9, 0-1-5-9, 0-2-4-9, 0-2-5-9, 0-3-4-9 = 5? plus none.
  EXPECT_EQ(spg.CountShortestPaths(), 5u);
}

TEST(SpgAnalysisTest, CompleteBipartiteLayerCounts) {
  // 0 - {1,2,3} - {4,5,6} - 7 fully wired: 3*3 = 9 paths.
  std::vector<Edge> edges;
  for (VertexId a : {1, 2, 3}) edges.emplace_back(0, a);
  for (VertexId a : {1, 2, 3}) {
    for (VertexId b : {4, 5, 6}) edges.emplace_back(a, b);
  }
  for (VertexId b : {4, 5, 6}) edges.emplace_back(b, 7);
  Graph g = Graph::FromEdges(8, edges);
  const auto spg = SpgByDoubleBfs(g, 0, 7);
  EXPECT_EQ(spg.CountShortestPaths(), 9u);
}

TEST(SpgAnalysisTest, TrivialCases) {
  Graph g = PathGraph(3);
  const auto same = SpgByDoubleBfs(g, 1, 1);
  EXPECT_EQ(same.distance, 0u);
  EXPECT_EQ(same.CountShortestPaths(), 1u);
  EXPECT_TRUE(same.edges.empty());
  EXPECT_EQ(same.Vertices(), std::vector<VertexId>{1});

  Graph disc = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto d = SpgByDoubleBfs(disc, 0, 3);
  EXPECT_FALSE(d.Connected());
  EXPECT_EQ(d.CountShortestPaths(), 0u);
  EXPECT_TRUE(d.Vertices().empty());
}

TEST(SpgAnalysisTest, CriticalVerticesOnPath) {
  Graph g = PathGraph(5);
  const auto spg = SpgByDoubleBfs(g, 0, 4);
  EXPECT_EQ(spg.CriticalVertices(), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(spg.CriticalEdges().size(), 4u);
}

TEST(SpgAnalysisTest, CriticalVertexAtBottleneck) {
  // Two diamonds sharing vertex 3: all 0-6 shortest paths pass through 3.
  Graph g = Graph::FromEdges(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  const auto spg = SpgByDoubleBfs(g, 0, 6);
  EXPECT_EQ(spg.distance, 4u);
  EXPECT_EQ(spg.CountShortestPaths(), 4u);
  EXPECT_EQ(spg.CriticalVertices(), std::vector<VertexId>{3});
  EXPECT_TRUE(spg.CriticalEdges().empty());
}

TEST(SpgAnalysisTest, NoCriticalVertexInCycle) {
  Graph g = CycleGraph(6);  // two disjoint 0..3 paths
  const auto spg = SpgByDoubleBfs(g, 0, 3);
  EXPECT_EQ(spg.distance, 3u);
  EXPECT_EQ(spg.CountShortestPaths(), 2u);
  EXPECT_TRUE(spg.CriticalVertices().empty());
  EXPECT_TRUE(spg.CriticalEdges().empty());
}

TEST(SpgResultTest, NormalizeSortsAndDedupes) {
  ShortestPathGraph spg;
  spg.u = 0;
  spg.v = 2;
  spg.distance = 2;
  spg.edges = {{2, 1}, {0, 1}, {1, 2}, {1, 0}};
  spg.Normalize();
  EXPECT_EQ(spg.edges, (std::vector<Edge>{{0, 1}, {1, 2}}));

  // Ids at and above 2^31 (the packed keys' high bits), each edge in both
  // orientations: sorted as Edge::operator< sorts, one copy of each, and
  // AssignNormalized agrees with Normalize.
  const VertexId hi = VertexId{1} << 31;
  const VertexId max = ~VertexId{0};
  const Edge one_way[] = {{hi + 5, 3}, {hi, hi + 1}, {7, 2}, {hi, 2}, {max, 0}};
  std::vector<Edge> raw;
  for (const Edge& e : one_way) {
    raw.push_back(e);
    raw.emplace_back(e.v, e.u);
  }
  std::vector<Edge> expected;
  for (const Edge& e : raw) expected.push_back(e.Normalized());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  ASSERT_EQ(expected.size(), 5u);
  spg.edges = raw;
  spg.Normalize();
  EXPECT_EQ(spg.edges, expected);
  EXPECT_TRUE(std::is_sorted(spg.edges.begin(), spg.edges.end()));
  ShortestPathGraph assigned;
  std::vector<uint64_t> keys = {42};  // stale scratch is overwritten
  assigned.edges = {{9, 9}};
  assigned.AssignNormalized(raw, &keys);
  EXPECT_EQ(assigned.edges, expected);
}

// The radix path of AssignNormalized, on both sides of its cutoff: random
// edge sets with duplicates, edges given both ways round, vertex 0 and
// ids just below 2^31 - 1, each against a std::sort + unique reference.
TEST(SpgResultTest, RadixOrderIsTheComparisonSortOrder) {
  const size_t sizes[] = {kRadixSortMinEdges - 1, kRadixSortMinEdges,
                          kRadixSortMinEdges + 1, 4 * kRadixSortMinEdges};
  // Where the ids come from: all near 0, all near 2^31 - 2, and both ends
  // at once (the widest keys).
  const VertexId top = (VertexId{1} << 31) - 2;
  Rng rng(2021);
  std::vector<uint64_t> keys;
  for (const size_t size : sizes) {
    for (int range = 0; range < 3; ++range) {
      for (int trial = 0; trial < 20; ++trial) {
        const auto id = [&]() -> VertexId {
          const auto offset = static_cast<VertexId>(rng.UniformInt(300));
          const bool high = range == 1 || (range == 2 && rng.UniformInt(2));
          return high ? top - offset : offset;
        };
        std::vector<Edge> raw;
        raw.emplace_back(0, id());
        raw.emplace_back(top, id());
        while (raw.size() < size) {
          if (rng.UniformInt(4) == 0) {
            // A duplicate, half of them the other way round.
            const Edge& e = raw[rng.UniformInt(raw.size())];
            raw.push_back(rng.UniformInt(2) ? Edge(e.v, e.u) : e);
          } else {
            raw.emplace_back(id(), id());
          }
        }
        std::vector<Edge> expected;
        for (const Edge& e : raw) expected.push_back(e.Normalized());
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
        ShortestPathGraph spg;
        spg.AssignNormalized(raw, &keys);
        ASSERT_EQ(spg.edges, expected)
            << "size " << size << " range " << range << " trial " << trial;
      }
    }
  }
}

TEST(SpgResultTest, VerticesIncludeEndpoints) {
  ShortestPathGraph spg;
  spg.u = 5;
  spg.v = 7;
  spg.distance = 2;
  spg.edges = {{5, 6}, {6, 7}};
  EXPECT_EQ(spg.Vertices(), (std::vector<VertexId>{5, 6, 7}));
}

TEST(SpgAnalysisTest, GridPathCountsAreBinomials) {
  // On a grid, #shortest corner-to-corner paths = C(r+c, r).
  Graph g = GridGraph(3, 4);
  const auto spg = SpgByDoubleBfs(g, 0, 11);  // (0,0) -> (2,3)
  EXPECT_EQ(spg.distance, 5u);
  EXPECT_EQ(spg.CountShortestPaths(), 10u);  // C(5,2)
}

}  // namespace
}  // namespace qbs
