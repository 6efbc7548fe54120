// Adversarial stress tests: structurally nasty configurations (bridges,
// dumbbells, landmark-saturated graphs, multi-component graphs with
// landmarks stranded in one component). Every pair of small random graphs
// is the oracle driver's (oracle_driver_test.cc).

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "baselines/parent_ppl.h"
#include "baselines/ppl.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

TEST(StressTest, DumbbellBridge) {
  // Two cliques joined by a long path; the bridge path is critical.
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 6; ++i) {
    for (VertexId j = i + 1; j < 6; ++j) edges.emplace_back(i, j);
  }
  for (VertexId i = 10; i < 16; ++i) {
    for (VertexId j = i + 1; j < 16; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(0, 6);
  edges.emplace_back(6, 7);
  edges.emplace_back(7, 8);
  edges.emplace_back(8, 10);
  Graph g = Graph::FromEdges(16, edges);
  QbsOptions options;
  options.num_landmarks = 4;
  QbsIndex index = QbsIndex::Build(g, options);
  for (VertexId u = 0; u < 16; ++u) {
    for (VertexId v = 0; v < 16; ++v) {
      ASSERT_EQ(index.Query({u, v}).spg, SpgByDoubleBfs(g, u, v));
    }
  }
  // The bridge vertices are on all shortest 3 -> 13 paths.
  const auto spg = index.Query({3, 13}).spg;
  const auto critical = spg.CriticalVertices();
  EXPECT_NE(std::find(critical.begin(), critical.end(), 7u), critical.end());
}

TEST(StressTest, LandmarksStrandedInOtherComponent) {
  // All landmarks end up in the big component; the small one must still be
  // answered (pure sparsified search, empty sketches).
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 30; ++i) {
    edges.emplace_back(i, (i + 1) % 30);
    edges.emplace_back(i, (i + 2) % 30);  // dense-ish ring
  }
  // Small far component: a 5-cycle.
  for (VertexId i = 30; i < 35; ++i) {
    edges.emplace_back(i, i == 34 ? 30 : i + 1);
  }
  Graph g = Graph::FromEdges(35, edges);
  QbsOptions options;
  options.num_landmarks = 5;  // degree selection picks ring vertices
  QbsIndex index = QbsIndex::Build(g, options);
  for (VertexId r : index.landmarks()) EXPECT_LT(r, 30u);
  for (VertexId u = 30; u < 35; ++u) {
    for (VertexId v = 30; v < 35; ++v) {
      ASSERT_EQ(index.Query({u, v}).spg, SpgByDoubleBfs(g, u, v));
    }
    // Cross-component queries are disconnected.
    EXPECT_FALSE(index.Query({u, 0}).spg.Connected());
  }
}

TEST(StressTest, RepeatedQueriesAreIdempotent) {
  Graph g = testing::RandomConnectedGraph(200, 150, 9);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto first = index.Query({5, 150}).spg;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(index.Query({5, 150}).spg, first);
    // Interleave other queries to perturb the scratch state.
    index.Query({static_cast<VertexId>(i), static_cast<VertexId>(199 - i)});
  }
}

TEST(StressTest, AllBaselinesAgreeOnNastyGraph) {
  // A graph with heavy shortest-path multiplicity: layered complete
  // bipartite blocks.
  std::vector<Edge> edges;
  auto layer = [](int l, int i) { return static_cast<VertexId>(l * 4 + i); };
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        edges.emplace_back(layer(l, i), layer(l + 1, j));
      }
    }
  }
  Graph g = Graph::FromEdges(20, edges);
  QbsOptions options;
  options.num_landmarks = 3;
  QbsIndex qbs = QbsIndex::Build(g, options);
  BiBfs bibfs(g);
  auto ppl = PplIndex::Build(g);
  auto pppl = ParentPplIndex::Build(g);
  ASSERT_TRUE(ppl.has_value());
  ASSERT_TRUE(pppl.has_value());
  for (VertexId u = 0; u < 20; ++u) {
    for (VertexId v = 0; v < 20; ++v) {
      const auto want = SpgByDoubleBfs(g, u, v);
      ASSERT_EQ(qbs.Query({u, v}).spg, want);
      ASSERT_EQ(bibfs.Query(u, v), want);
      ASSERT_EQ(ppl->QuerySpg(u, v), want);
      ASSERT_EQ(pppl->QuerySpg(u, v), want);
    }
  }
  // 4 layers of complete bipartite K4,4: 4^3 = 64 corner-to-corner paths.
  EXPECT_EQ(qbs.Query({0, 16}).spg.CountShortestPaths(), 64u);
}

TEST(StressTest, HighDiameterWithFewLandmarks) {
  // Long cycle: distances up to 150; exercises deep level vectors and the
  // d* guidance on both sides.
  Graph g = CycleGraph(300);
  QbsOptions options;
  options.num_landmarks = 3;
  QbsIndex index = QbsIndex::Build(g, options);
  for (VertexId v : {1u, 75u, 149u, 150u, 151u, 299u}) {
    ASSERT_EQ(index.Query({0, v}).spg, SpgByDoubleBfs(g, 0, v)) << v;
  }
  // Antipodal pair on an even cycle: exactly two shortest paths.
  EXPECT_EQ(index.Query({0, 150}).spg.CountShortestPaths(), 2u);
}

}  // namespace
}  // namespace qbs
