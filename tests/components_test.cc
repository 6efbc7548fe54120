#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/components.h"

namespace qbs {
namespace {

TEST(ComponentsTest, SingleComponent) {
  Graph g = PathGraph(5);
  const auto info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 1u);
  EXPECT_EQ(info.sizes[0], 5u);
}

TEST(ComponentsTest, MultipleComponents) {
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {3, 4}});  // 5, 6 isolated
  const auto info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 4u);
  EXPECT_EQ(info.sizes[info.largest], 3u);
}

TEST(ComponentsTest, ComponentIdsConsistent) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}});
  const auto info = ConnectedComponents(g);
  EXPECT_EQ(info.component[0], info.component[1]);
  EXPECT_EQ(info.component[2], info.component[3]);
  EXPECT_NE(info.component[0], info.component[2]);
}

TEST(LargestComponentTest, ExtractsAndRelabels) {
  Graph g = Graph::FromEdges(8, {{0, 1}, {1, 2}, {2, 0}, {5, 6}});
  const auto sub = LargestComponent(g);
  EXPECT_EQ(sub.graph.NumVertices(), 3u);
  EXPECT_EQ(sub.graph.NumEdges(), 3u);
  EXPECT_EQ(ConnectedComponents(sub.graph).num_components, 1u);
  // Mapping points back to the original triangle.
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_LT(sub.to_original[v], 3u);
  }
}

TEST(LargestComponentTest, PreservesStructure) {
  // Two components: a 4-cycle and a 3-path; largest is the cycle.
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}});
  const auto sub = LargestComponent(g);
  EXPECT_EQ(sub.graph.NumVertices(), 4u);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(sub.graph.Degree(v), 2u);
  }
}

TEST(LargestComponentTest, EmptyGraph) {
  Graph g;
  const auto sub = LargestComponent(g);
  EXPECT_EQ(sub.graph.NumVertices(), 0u);
}

TEST(LargestComponentTest, ConnectedGraphUnchanged) {
  Graph g = BarabasiAlbert(100, 2, 9);
  const auto sub = LargestComponent(g);
  EXPECT_EQ(sub.graph.NumVertices(), g.NumVertices());
  EXPECT_EQ(sub.graph.NumEdges(), g.NumEdges());
}

}  // namespace
}  // namespace qbs
