#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/meta_graph.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

TEST(MetaGraphTest, AddEdgeIdempotentAndSymmetric) {
  MetaGraph m(3);
  m.AddEdge(0, 1, 2);
  m.AddEdge(1, 0, 2);  // rediscovery from the other endpoint
  EXPECT_EQ(m.Edges().size(), 1u);
  EXPECT_EQ(m.EdgeWeight(0, 1), 2u);
  EXPECT_EQ(m.EdgeWeight(1, 0), 2u);
  EXPECT_EQ(m.EdgeWeight(0, 2), kUnreachable);
}

TEST(MetaGraphTest, ApspOnTriangle) {
  MetaGraph m(3);
  m.AddEdge(0, 1, 1);
  m.AddEdge(1, 2, 1);
  m.AddEdge(0, 2, 5);  // direct edge longer than the 2-hop route
  m.Finalize();
  EXPECT_EQ(m.Distance(0, 2), 2u);
  EXPECT_EQ(m.Distance(0, 0), 0u);
  EXPECT_EQ(m.Distance(2, 0), 2u);
}

TEST(MetaGraphTest, DisconnectedLandmarks) {
  MetaGraph m(4);
  m.AddEdge(0, 1, 3);
  m.AddEdge(2, 3, 1);
  m.Finalize();
  EXPECT_EQ(m.Distance(0, 2), kUnreachable);
  EXPECT_EQ(m.Distance(1, 3), kUnreachable);
}

// DistanceRow(a)[b] == Distance(a, b) == Distance(b, a) for every pair:
// the sketch's min-plus sweep reads row b as column b.
void ExpectRowsMatchSymmetricDistances(const MetaGraph& m) {
  const LandmarkIndex k = m.num_landmarks();
  for (LandmarkIndex a = 0; a < k; ++a) {
    const uint32_t* row = m.DistanceRow(a);
    for (LandmarkIndex b = 0; b < k; ++b) {
      ASSERT_EQ(row[b], m.Distance(a, b)) << "a=" << a << " b=" << b;
      ASSERT_EQ(m.Distance(a, b), m.Distance(b, a)) << "a=" << a << " b=" << b;
    }
  }
}

TEST(MetaGraphTest, DistanceRowIsSymmetricApspRow) {
  MetaGraph m(4);
  m.AddEdge(0, 1, 3);
  m.AddEdge(2, 3, 1);
  m.Finalize();
  ExpectRowsMatchSymmetricDistances(m);
  EXPECT_EQ(m.DistanceRow(2)[0], kUnreachable);
  EXPECT_EQ(m.DistanceRow(3)[3], 0u);

  const Graph g = BarabasiAlbert(300, 2, 9);
  const auto scheme =
      BuildLabelingScheme(g, testing::RandomLandmarks(g, 24, 9));
  ASSERT_TRUE(scheme.meta.finalized());
  ExpectRowsMatchSymmetricDistances(scheme.meta);
}

TEST(MetaGraphTest, EdgeOnShortestPath) {
  // 0 -1- 1 -1- 2 and direct 0 -2- 2: both routes are shortest (length 2).
  MetaGraph m(3);
  m.AddEdge(0, 1, 1);
  m.AddEdge(1, 2, 1);
  m.AddEdge(0, 2, 2);
  m.Finalize();
  for (const MetaEdge& e : m.Edges()) {
    EXPECT_TRUE(m.EdgeOnShortestPath(e, 0, 2));
  }
  // Edge (1,2) is not on a shortest 0-1 path.
  EXPECT_FALSE(m.EdgeOnShortestPath(MetaEdge{1, 2, 1}, 0, 1));
}

TEST(MetaGraphTest, Figure4EdgeOnShortestPath) {
  const auto scheme = BuildLabelingScheme(testing::Figure4Graph(),
                                          testing::Figure4Landmarks());
  const MetaGraph& m = scheme.meta;
  // d_M(1,3) = 2 via direct edge and via 1-2-3 (Example 4.7's sketch).
  EXPECT_EQ(m.Distance(0, 2), 2u);
  EXPECT_TRUE(m.EdgeOnShortestPath(MetaEdge{0, 2, 2}, 0, 2));
  EXPECT_TRUE(m.EdgeOnShortestPath(MetaEdge{0, 1, 1}, 0, 2));
  EXPECT_TRUE(m.EdgeOnShortestPath(MetaEdge{1, 2, 1}, 0, 2));
}

// Property: meta-graph APSP distances equal true graph distances between
// landmarks (subpaths of shortest paths split at consecutive landmarks are
// meta-edges, so d_M == d_G on R x R).
class MetaDistanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetaDistanceProperty, MetaApspEqualsGraphDistance) {
  const uint64_t seed = GetParam();
  Graph g = BarabasiAlbert(250, 2, seed);
  const auto landmarks = SelectLandmarks(g, 10);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  for (uint32_t i = 0; i < landmarks.size(); ++i) {
    const auto dist = BfsDistances(g, landmarks[i]);
    for (uint32_t j = 0; j < landmarks.size(); ++j) {
      EXPECT_EQ(scheme.meta.Distance(i, j), dist[landmarks[j]])
          << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MetaGraphTest, SizeBytesSmall) {
  MetaGraph m(100);
  m.Finalize();
  // The paper notes a |R|=100 meta-graph stays well under 0.01 MB of edge
  // data; our dense weight matrix is 40 KB, edges none.
  EXPECT_LT(m.SizeBytes(), 100u * 100u * sizeof(uint32_t) + 1024u);
}

}  // namespace
}  // namespace qbs
