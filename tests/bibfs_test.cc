#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

TEST(BiBfsTest, Figure3QueryAnswer) {
  Graph g = testing::Figure3Graph();
  BiBfs bibfs(g);
  const auto spg = bibfs.Query(2, 6);
  EXPECT_EQ(spg, SpgByDoubleBfs(g, 2, 6));
}

TEST(BiBfsTest, TrivialAndDisconnected) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}});
  BiBfs bibfs(g);
  EXPECT_EQ(bibfs.Query(1, 1).distance, 0u);
  EXPECT_FALSE(bibfs.Query(0, 4).Connected());
  EXPECT_EQ(bibfs.Query(0, 2).distance, 2u);
}

TEST(BiBfsTest, ReusedAcrossQueries) {
  Graph g = CycleGraph(12);
  BiBfs bibfs(g);
  for (VertexId v = 1; v < 12; ++v) {
    EXPECT_EQ(bibfs.Query(0, v), SpgByDoubleBfs(g, 0, v)) << "v=" << v;
  }
}

TEST(BiBfsTest, ScansFewerEdgesThanTwoFullBfs) {
  Graph g = BarabasiAlbert(3000, 3, 31);
  BiBfs bibfs(g);
  uint64_t scanned = 0;
  bibfs.Query(100, 2000, &scanned);
  // Must touch something, and far less than two full sweeps.
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(scanned, 4 * g.NumEdges());
}

// u - a - H - b - v, where the hub H has 200 extra leaves: the frontiers
// meet at H. Walking back from H over its own adjacency scans deg(H) =
// 202 edges per side; walking back bottom-up scans the level below H,
// which the search scanned already.
TEST(BiBfsTest, HubMeetVertexWalksBackBottomUp) {
  constexpr VertexId kU = 0, kA = 1, kHub = 2, kB = 3, kV = 4;
  std::vector<Edge> edges = {{kU, kA}, {kA, kHub}, {kHub, kB}, {kB, kV}};
  for (VertexId leaf = 5; leaf < 205; ++leaf) edges.emplace_back(kHub, leaf);
  Graph g = Graph::FromEdges(205, edges);
  ASSERT_EQ(g.Degree(kHub), 202u);
  BiBfs bibfs(g);
  uint64_t scanned = 0;
  EXPECT_EQ(bibfs.Query(kU, kV, &scanned), SpgByDoubleBfs(g, kU, kV));
  EXPECT_LT(scanned, g.Degree(kHub));
}

// u and v share 30 middle vertices, so the frontiers meet at all of them
// in v's first expansion. Its 30 entries are the meet edges, recorded as
// they are scanned, so v's side never scans the meeting level again: the
// query costs 30 + 30 search entries and u's side walking back bottom-up
// over the 30 its level 0 scanned.
TEST(BiBfsTest, MeetingLevelIsScannedOnce) {
  constexpr VertexId kU = 0, kV = 31;
  std::vector<Edge> edges;
  for (VertexId m = 1; m < kV; ++m) {
    edges.emplace_back(kU, m);
    edges.emplace_back(m, kV);
  }
  Graph g = Graph::FromEdges(32, edges);
  BiBfs bibfs(g);
  uint64_t scanned = 0;
  EXPECT_EQ(bibfs.Query(kU, kV, &scanned), SpgByDoubleBfs(g, kU, kV));
  EXPECT_EQ(scanned, 90u);
}

TEST(BiBfsDistanceTest, TrivialCases) {
  Graph g = PathGraph(5);
  BiBfs bibfs(g);
  EXPECT_EQ(bibfs.Distance(2, 2), 0u);
  EXPECT_EQ(bibfs.Distance(0, 4), 4u);
  EXPECT_EQ(bibfs.Distance(1, 2), 1u);
}

TEST(BiBfsDistanceTest, Disconnected) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(BiBfs(g).Distance(0, 3), kUnreachable);
}

TEST(BiBfsDistanceTest, CycleAntipodes) {
  Graph g = CycleGraph(10);
  BiBfs bibfs(g);
  EXPECT_EQ(bibfs.Distance(0, 5), 5u);
  EXPECT_EQ(bibfs.Distance(0, 7), 3u);
}

struct BiBfsSweepParam {
  int kind;  // 0 = BA, 1 = ER, 2 = WS
  uint64_t seed;
};

class BiBfsSweep : public ::testing::TestWithParam<BiBfsSweepParam> {};

// Property: bidirectional distance equals full-BFS distance on random
// graphs of several families, for many pairs.
TEST_P(BiBfsSweep, MatchesFullBfs) {
  const auto& p = GetParam();
  Graph g;
  switch (p.kind) {
    case 0:
      g = BarabasiAlbert(300, 2, p.seed);
      break;
    case 1:
      g = LargestComponent(ErdosRenyi(300, 500, p.seed)).graph;
      break;
    default:
      g = WattsStrogatz(300, 4, 0.2, p.seed);
      break;
  }
  BiBfs bibfs(g);
  const auto pairs = SampleQueryPairs(g, 50, p.seed + 1);
  for (const auto& [u, v] : pairs) {
    const auto full = BfsDistances(g, u);
    EXPECT_EQ(bibfs.Distance(u, v), full[v]) << "u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BiBfsSweep,
                         ::testing::Values(BiBfsSweepParam{0, 1},
                                           BiBfsSweepParam{0, 2},
                                           BiBfsSweepParam{1, 3},
                                           BiBfsSweepParam{1, 4},
                                           BiBfsSweepParam{2, 5},
                                           BiBfsSweepParam{2, 6}));

struct SweepParam {
  int family;
  uint64_t seed;
  uint32_t pairs;
};

class BiBfsOracleSweep : public ::testing::TestWithParam<SweepParam> {};

// Property: Bi-BFS equals the double-BFS oracle on every sampled pair of
// several graph families.
TEST_P(BiBfsOracleSweep, MatchesOracle) {
  const auto& p = GetParam();
  Graph g;
  switch (p.family) {
    case 0:
      g = BarabasiAlbert(400, 2, p.seed);
      break;
    case 1:
      g = LargestComponent(ErdosRenyi(400, 700, p.seed)).graph;
      break;
    case 2:
      g = WattsStrogatz(400, 6, 0.15, p.seed);
      break;
    case 3:
      g = LargestComponent(RMat(9, 3, 0.57, 0.19, 0.19, p.seed)).graph;
      break;
    default:
      g = GridGraph(18, 20);
      break;
  }
  BiBfs bibfs(g);
  const auto pairs = SampleQueryPairs(g, p.pairs, p.seed + 99);
  for (const auto& [u, v] : pairs) {
    const auto got = bibfs.Query(u, v);
    const auto want = SpgByDoubleBfs(g, u, v);
    ASSERT_EQ(got, want) << "u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BiBfsOracleSweep,
    ::testing::Values(SweepParam{0, 1, 40}, SweepParam{0, 2, 40},
                      SweepParam{1, 3, 40}, SweepParam{1, 4, 40},
                      SweepParam{2, 5, 40}, SweepParam{2, 6, 40},
                      SweepParam{3, 7, 40}, SweepParam{3, 8, 40},
                      SweepParam{4, 9, 40}));

}  // namespace
}  // namespace qbs
