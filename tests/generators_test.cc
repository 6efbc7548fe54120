#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/components.h"

namespace qbs {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  Graph g = ErdosRenyi(100, 250, 1);
  EXPECT_EQ(g.NumVertices(), 100u);
  EXPECT_EQ(g.NumEdges(), 250u);
}

TEST(ErdosRenyiTest, DeterministicBySeed) {
  Graph a = ErdosRenyi(50, 100, 7);
  Graph b = ErdosRenyi(50, 100, 7);
  Graph c = ErdosRenyi(50, 100, 8);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
  EXPECT_NE(a.EdgeList(), c.EdgeList());
}

TEST(BarabasiAlbertTest, ConnectedWithExpectedSize) {
  Graph g = BarabasiAlbert(500, 3, 2);
  EXPECT_EQ(g.NumVertices(), 500u);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
  // Seed clique C(4,2)=6 edges + 3 per subsequent vertex.
  EXPECT_EQ(g.NumEdges(), 6u + 3u * (500 - 4));
}

TEST(BarabasiAlbertTest, ProducesHubs) {
  Graph g = BarabasiAlbert(2000, 2, 3);
  // Preferential attachment should give a max degree far above the mean.
  EXPECT_GT(g.MaxDegree(), 5 * static_cast<uint32_t>(g.AverageDegree()));
}

TEST(BarabasiAlbertTest, MinDegreeAtLeastM) {
  Graph g = BarabasiAlbert(300, 4, 5);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GE(g.Degree(v), 4u);
  }
}

TEST(WattsStrogatzTest, NoRewireIsRingLattice) {
  Graph g = WattsStrogatz(20, 4, 0.0, 1);
  EXPECT_EQ(g.NumEdges(), 40u);
  for (VertexId v = 0; v < 20; ++v) {
    EXPECT_EQ(g.Degree(v), 4u);
  }
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(WattsStrogatzTest, RewiringKeepsDegreesNearUniform) {
  Graph g = WattsStrogatz(1000, 6, 0.3, 4);
  EXPECT_EQ(g.NumVertices(), 1000u);
  // Degrees stay concentrated (the Friendster-like regime): max degree is
  // a small multiple of the mean, unlike BA/R-MAT hubs.
  EXPECT_LT(g.MaxDegree(), 4 * static_cast<uint32_t>(g.AverageDegree()));
}

TEST(RMatTest, SizeAndSkew) {
  Graph g = RMat(12, 8, 0.57, 0.19, 0.19, 6);
  EXPECT_EQ(g.NumVertices(), 1u << 12);
  EXPECT_GT(g.NumEdges(), 0u);
  // Recursive quadrant bias concentrates edges on low-id vertices.
  EXPECT_GT(g.MaxDegree(), 10 * static_cast<uint32_t>(g.AverageDegree()));
}

TEST(RMatTest, DeterministicBySeed) {
  Graph a = RMat(10, 4, 0.57, 0.19, 0.19, 11);
  Graph b = RMat(10, 4, 0.57, 0.19, 0.19, 11);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

TEST(StructuredGraphsTest, PathCycleGridStarCompleteTree) {
  EXPECT_EQ(PathGraph(5).NumEdges(), 4u);
  EXPECT_EQ(CycleGraph(5).NumEdges(), 5u);
  EXPECT_EQ(GridGraph(3, 4).NumEdges(), 3u * 3 + 4u * 2);
  EXPECT_EQ(StarGraph(6).NumEdges(), 5u);
  EXPECT_EQ(CompleteGraph(6).NumEdges(), 15u);
  EXPECT_EQ(CompleteBinaryTree(7).NumEdges(), 6u);
  EXPECT_EQ(ConnectedComponents(GridGraph(3, 4)).num_components, 1u);
  EXPECT_EQ(ConnectedComponents(CompleteBinaryTree(15)).num_components, 1u);
}

TEST(StructuredGraphsTest, SingleVertexEdgeCases) {
  EXPECT_EQ(PathGraph(1).NumVertices(), 1u);
  EXPECT_EQ(PathGraph(1).NumEdges(), 0u);
  EXPECT_EQ(StarGraph(1).NumEdges(), 0u);
  EXPECT_EQ(CompleteGraph(1).NumEdges(), 0u);
}

// Property sweep: all generators produce simple graphs (no self loops or
// parallel edges — guaranteed by Graph::FromEdges, checked end to end).
class GeneratorSimplicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorSimplicity, AllFamiliesSimple) {
  const uint64_t seed = GetParam();
  const Graph graphs[] = {
      ErdosRenyi(200, 400, seed),
      BarabasiAlbert(200, 3, seed),
      WattsStrogatz(200, 4, 0.25, seed),
      RMat(8, 4, 0.57, 0.19, 0.19, seed),
  };
  for (const Graph& g : graphs) {
    uint64_t adjacency_entries = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const auto nbrs = g.Neighbors(v);
      adjacency_entries += nbrs.size();
      for (size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_NE(nbrs[i], v);  // no self loop
        if (i > 0) {
          EXPECT_LT(nbrs[i - 1], nbrs[i]);  // sorted => no dupes
        }
      }
    }
    EXPECT_EQ(adjacency_entries, 2 * g.NumEdges());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSimplicity,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace qbs
