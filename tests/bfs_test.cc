#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/bfs.h"

namespace qbs {
namespace {

TEST(BfsTest, PathGraphDistances) {
  Graph g = PathGraph(6);
  const auto d = BfsDistances(g, 0);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(d[v], v);
  }
}

TEST(BfsTest, StarGraphDistances) {
  Graph g = StarGraph(10);
  const auto from_hub = BfsDistances(g, 0);
  const auto from_leaf = BfsDistances(g, 3);
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_EQ(from_hub[v], 1u);
    EXPECT_EQ(from_leaf[v], v == 3 ? 0u : 2u);
  }
}

TEST(BfsTest, DisconnectedIsUnreachable) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto d = BfsDistances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(BfsTest, GridDistancesAreManhattan) {
  Graph g = GridGraph(4, 5);
  const auto d = BfsDistances(g, 0);
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 5; ++c) {
      EXPECT_EQ(d[r * 5 + c], r + c);
    }
  }
}

// Multi-source distances are the minimum over sources of the single-source
// ones: on connected and disconnected families, with a repeated source and
// with no source at all.
TEST(BfsTest, MultiSourceIsTheMinimumOverSources) {
  const Graph graphs[] = {BarabasiAlbert(300, 2, 5), ErdosRenyi(200, 150, 7),
                          GridGraph(9, 11), CompleteBinaryTree(127),
                          WattsStrogatz(150, 4, 0.2, 3)};
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    const std::vector<VertexId> sources = {0, n / 3, n - 1, n / 3, 2 * n / 3};
    std::vector<uint32_t> want(n, kUnreachable);
    for (const VertexId s : sources) {
      const std::vector<uint32_t> single = BfsDistances(g, s);
      for (VertexId v = 0; v < n; ++v) want[v] = std::min(want[v], single[v]);
    }
    EXPECT_EQ(BfsDistances(g, sources), want);
    EXPECT_EQ(BfsDistances(g, std::vector<VertexId>{}),
              std::vector<uint32_t>(n, kUnreachable));
  }
}

}  // namespace
}  // namespace qbs
