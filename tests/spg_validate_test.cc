#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/spg_validate.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

TEST(SpgValidateTest, AcceptsOracleAnswers) {
  Graph g = testing::Figure4Graph();
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const auto r = ValidateShortestPathGraph(g, SpgByDoubleBfs(g, u, v));
      ASSERT_TRUE(r.ok) << r.error;
    }
  }
}

TEST(SpgValidateTest, AcceptsQbsAnswers) {
  Graph g = BarabasiAlbert(300, 3, 1);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex index = QbsIndex::Build(g, options);
  for (const auto& [u, v] : SampleQueryPairs(g, 50, 2)) {
    const auto r = ValidateShortestPathGraph(g, index.Query({u, v}).spg);
    ASSERT_TRUE(r.ok) << r.error;
  }
}

TEST(SpgValidateTest, RejectsWrongDistance) {
  Graph g = PathGraph(5);
  auto spg = SpgByDoubleBfs(g, 0, 4);
  spg.distance = 3;
  const auto r = ValidateShortestPathGraph(g, spg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("distance"), std::string::npos);
}

TEST(SpgValidateTest, RejectsMissingEdge) {
  Graph g = CycleGraph(6);
  auto spg = SpgByDoubleBfs(g, 0, 3);  // two paths
  spg.edges.erase(spg.edges.begin());  // drop one edge
  const auto r = ValidateShortestPathGraph(g, spg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("missing"), std::string::npos);
}

TEST(SpgValidateTest, RejectsExtraOffPathEdge) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  auto spg = SpgByDoubleBfs(g, 0, 2);
  spg.edges.push_back(Edge(3, 4));  // real edge, not on a shortest path
  spg.Normalize();
  const auto r = ValidateShortestPathGraph(g, spg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not on any shortest path"), std::string::npos);
}

TEST(SpgValidateTest, RejectsPhantomEdge) {
  Graph g = PathGraph(4);
  auto spg = SpgByDoubleBfs(g, 0, 3);
  spg.edges.push_back(Edge(0, 2));  // edge absent from the graph
  spg.Normalize();
  const auto r = ValidateShortestPathGraph(g, spg);
  EXPECT_FALSE(r.ok);
}

TEST(SpgValidateTest, RejectsUnnormalizedEdges) {
  Graph g = PathGraph(4);
  auto spg = SpgByDoubleBfs(g, 0, 3);
  std::swap(spg.edges[0], spg.edges[1]);
  const auto r = ValidateShortestPathGraph(g, spg);
  EXPECT_FALSE(r.ok);
}

TEST(SpgValidateTest, TrivialAndDisconnected) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(ValidateShortestPathGraph(g, SpgByDoubleBfs(g, 1, 1)).ok);
  EXPECT_TRUE(ValidateShortestPathGraph(g, SpgByDoubleBfs(g, 0, 3)).ok);
  auto bad = SpgByDoubleBfs(g, 0, 3);
  bad.edges.push_back(Edge(0, 1));
  EXPECT_FALSE(ValidateShortestPathGraph(g, bad).ok);
}

TEST(SpgValidateTest, RejectsOutOfRangeEndpoint) {
  Graph g = PathGraph(3);
  ShortestPathGraph spg;
  spg.u = 7;
  spg.v = 1;
  EXPECT_FALSE(ValidateShortestPathGraph(g, spg).ok);
}

}  // namespace
}  // namespace qbs
