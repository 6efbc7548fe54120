#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/delta_cache.h"
#include "core/guided_search.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

// Brute-force reference: edges of all shortest a-b paths in G whose
// internal vertices avoid every other landmark — computed on the masked
// graph (other landmarks removed) via the double-BFS edge condition.
std::vector<Edge> BruteForceSegment(const Graph& g,
                                    const std::vector<VertexId>& landmarks,
                                    VertexId a, VertexId b) {
  std::vector<bool> removed(g.NumVertices(), false);
  for (VertexId r : landmarks) {
    if (r != a && r != b) removed[r] = true;
  }
  std::vector<Edge> masked_edges;
  for (const Edge& e : g.EdgeList()) {
    if (!removed[e.u] && !removed[e.v]) masked_edges.push_back(e);
  }
  const Graph masked = Graph::FromEdges(g.NumVertices(), masked_edges);
  const auto da = BfsDistances(masked, a);
  const auto db = BfsDistances(masked, b);
  // Segments exist only for meta-edges, whose weight is the TRUE distance
  // d_G(a, b); the masked graph realizes it by Definition 4.1.
  const uint32_t d = da[b];
  std::vector<Edge> result;
  for (const Edge& e : masked.EdgeList()) {
    const bool fwd = da[e.u] != kUnreachable && db[e.v] != kUnreachable &&
                     da[e.u] + 1 + db[e.v] == d;
    const bool bwd = da[e.v] != kUnreachable && db[e.u] != kUnreachable &&
                     da[e.v] + 1 + db[e.u] == d;
    if (fwd || bwd) result.push_back(e);
  }
  std::sort(result.begin(), result.end());
  return result;
}

class DeltaSegmentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaSegmentProperty, SegmentsMatchBruteForce) {
  const uint64_t seed = GetParam();
  Graph g = BarabasiAlbert(200, 2, seed);
  const auto landmarks = SelectLandmarks(g, 8);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  for (const MetaEdge& e : scheme.meta.Edges()) {
    auto got = RecoverMetaSegment(g, scheme.labeling, e);
    for (Edge& edge : got) edge = edge.Normalized();
    std::sort(got.begin(), got.end());
    got.erase(std::unique(got.begin(), got.end()), got.end());
    const auto want =
        BruteForceSegment(g, landmarks, landmarks[e.a], landmarks[e.b]);
    ASSERT_EQ(got, want) << "meta edge (" << e.a << "," << e.b << ") w="
                         << e.weight;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSegmentProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DeltaCacheTest, CoversEveryMetaEdge) {
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  const DeltaCache cache =
      DeltaCache::Build(g, scheme.labeling, scheme.meta, 2);
  EXPECT_EQ(cache.NumSegments(), scheme.meta.Edges().size());
  for (const MetaEdge& e : scheme.meta.Edges()) {
    const auto* segment = cache.Lookup(e.a, e.b);
    ASSERT_NE(segment, nullptr);
    EXPECT_FALSE(segment->empty());
    // Lookup is orientation-insensitive.
    EXPECT_EQ(cache.Lookup(e.b, e.a), segment);
  }
  EXPECT_GT(cache.SizeBytes(), 0u);
}

TEST(DeltaCacheTest, Figure4DirectAdjacency) {
  // Meta-edge (1, 2) has weight 1: its segment is exactly the edge between
  // the landmark vertices.
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  const auto segment = RecoverMetaSegment(
      g, scheme.labeling, MetaEdge{0, 1, 1});
  ASSERT_EQ(segment.size(), 1u);
  EXPECT_EQ(segment[0].Normalized(), Edge(0, 1));
}

TEST(DeltaCacheTest, Figure4TwoHopSegment) {
  // Meta-edge (1, 3) has weight 2 via vertex 4 only (Example 4.3).
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  auto segment =
      RecoverMetaSegment(g, scheme.labeling, MetaEdge{0, 2, 2});
  for (Edge& e : segment) e = e.Normalized();
  std::sort(segment.begin(), segment.end());
  EXPECT_EQ(segment, testing::PaperEdgeSet({{1, 4}, {4, 3}}));
}

TEST(DeltaCacheTest, MissingPairReturnsNull) {
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  const DeltaCache cache =
      DeltaCache::Build(g, scheme.labeling, scheme.meta, 1);
  // (0, 0) is not a meta-edge.
  EXPECT_EQ(cache.Lookup(0, 0), nullptr);
}

// The recover search splices Δ segments: landmark-routed pairs hit the
// cache, and the spliced answers match the oracle.
TEST(DeltaCacheTest, RecoverSearchSplicesCachedSegments) {
  Graph g = BarabasiAlbert(300, 3, 77);
  const auto scheme = BuildLabelingScheme(g, SelectLandmarks(g, 8));
  const DeltaCache delta =
      DeltaCache::Build(g, scheme.labeling, scheme.meta, 1);
  const LandmarkAdjacency adjacency =
      LandmarkAdjacency::Build(g, scheme.labeling);
  GuidedSearcher searcher(g, scheme.labeling, scheme.meta, delta, adjacency);
  uint64_t hits = 0;
  for (VertexId u = 0; u < 60; u += 3) {
    for (VertexId v = 100; v < 160; v += 7) {
      SearchStats stats;
      ASSERT_EQ(searcher.Query(u, v, &stats), SpgByDoubleBfs(g, u, v))
          << "u=" << u << " v=" << v;
      hits += stats.delta_cache_hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace qbs
