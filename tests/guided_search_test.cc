#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/guided_search.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "gen/generators.h"
#include "graph/frontier.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

using testing::Figure4Graph;
using testing::Figure4Landmarks;
using testing::PaperEdgeSet;

class GuidedSearchFigure4Test : public ::testing::Test {
 protected:
  GuidedSearchFigure4Test()
      : graph_(Figure4Graph()),
        scheme_(BuildLabelingScheme(graph_, Figure4Landmarks())),
        delta_(DeltaCache::Build(graph_, scheme_.labeling, scheme_.meta, 1)),
        adjacency_(LandmarkAdjacency::Build(graph_, scheme_.labeling)),
        searcher_(graph_, scheme_.labeling, scheme_.meta, delta_,
                  adjacency_) {}

  Graph graph_;
  LabelingScheme scheme_;
  DeltaCache delta_;
  LandmarkAdjacency adjacency_;
  GuidedSearcher searcher_;
};

// Example 4.8 / Figure 6(f): the full answer of SPG(6, 11).
TEST_F(GuidedSearchFigure4Test, GoldenAnswerSpg6_11) {
  SearchStats stats;
  const auto spg = searcher_.Query(5, 10, &stats);  // paper 6 and 11
  EXPECT_EQ(spg.distance, 5u);
  EXPECT_EQ(spg.edges, PaperEdgeSet({// G⁻ path 6-7-8-9-10-11
                                     {6, 7},
                                     {7, 8},
                                     {8, 9},
                                     {9, 10},
                                     {10, 11},
                                     // landmark paths
                                     {6, 1},
                                     {1, 2},
                                     {2, 9},
                                     {2, 3},
                                     {3, 12},
                                     {12, 11},
                                     {1, 4},
                                     {4, 3}}));
  // d_G⁻ = d⊤ = 5: the "some through landmarks" case of Eq. 5.
  EXPECT_EQ(stats.d_top, 5u);
  EXPECT_EQ(stats.d_sparsified, 5u);
  EXPECT_EQ(stats.coverage, PairCoverage::kSomeThroughLandmarks);
  EXPECT_EQ(spg, SpgByDoubleBfs(graph_, 5, 10));
}

TEST_F(GuidedSearchFigure4Test, AllPairsMatchOracle) {
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      ASSERT_EQ(searcher_.Query(u, v), SpgByDoubleBfs(graph_, u, v))
          << "u=" << u + 1 << " v=" << v + 1 << " (paper ids)";
    }
  }
}

TEST_F(GuidedSearchFigure4Test, LandmarkEndpointQueries) {
  // Landmark to non-landmark, non-landmark to landmark, landmark pair.
  EXPECT_EQ(searcher_.Query(0, 10), SpgByDoubleBfs(graph_, 0, 10));
  EXPECT_EQ(searcher_.Query(7, 2), SpgByDoubleBfs(graph_, 7, 2));
  EXPECT_EQ(searcher_.Query(0, 2), SpgByDoubleBfs(graph_, 0, 2));
  EXPECT_EQ(searcher_.Query(0, 1), SpgByDoubleBfs(graph_, 0, 1));
}

TEST_F(GuidedSearchFigure4Test, SelfQuery) {
  const auto spg = searcher_.Query(4, 4);
  EXPECT_EQ(spg.distance, 0u);
  EXPECT_TRUE(spg.edges.empty());
}

TEST_F(GuidedSearchFigure4Test, AdjacentNonLandmarks) {
  const auto spg = searcher_.Query(4, 13);  // paper 5 - 14
  EXPECT_EQ(spg.distance, 1u);
  EXPECT_EQ(spg.edges, PaperEdgeSet({{5, 14}}));
}

TEST_F(GuidedSearchFigure4Test, StatsTrackSparsification) {
  SearchStats stats;
  searcher_.Query(5, 10, &stats);
  EXPECT_GT(stats.edges_scanned_search, 0u);
  EXPECT_GT(stats.landmark_edges_skipped, 0u);
  // The answer's landmark-to-landmark segments (paper 1-2, 2-3 and 1-4-3)
  // are all spliced from Δ, and every Z-pair label walk starts next to its
  // landmark (paper 6-1, 9-2, 12-3), so the recover stage scans nothing.
  EXPECT_EQ(stats.delta_cache_hits, 3u);
  EXPECT_EQ(stats.edges_scanned_recover, 0u);
}

// A searcher and everything it references, over a caller-built graph.
struct SearchSetup {
  SearchSetup(Graph graph, const std::vector<VertexId>& landmarks)
      : g(std::move(graph)),
        scheme(BuildLabelingScheme(g, landmarks)),
        delta(DeltaCache::Build(g, scheme.labeling, scheme.meta, 1)),
        adjacency(LandmarkAdjacency::Build(g, scheme.labeling)),
        searcher(g, scheme.labeling, scheme.meta, delta, adjacency) {}

  Graph g;
  LabelingScheme scheme;
  DeltaCache delta;
  LandmarkAdjacency adjacency;
  GuidedSearcher searcher;
};

TEST(GuidedSearchTest, DisconnectedPair) {
  SearchSetup s(Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}), {1});
  SearchStats stats;
  const auto spg = s.searcher.Query(0, 5, &stats);
  EXPECT_FALSE(spg.Connected());
  EXPECT_TRUE(spg.edges.empty());
  EXPECT_EQ(stats.coverage, PairCoverage::kDisconnected);
}

TEST(GuidedSearchTest, ComponentWithoutLandmarks) {
  // The pair lives in a component no landmark touches: pure G⁻ search.
  SearchSetup s(Graph::FromEdges(7, {{0, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                                     {2, 6}}),
                {0});
  SearchStats stats;
  const auto spg = s.searcher.Query(2, 4, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(s.g, 2, 4));
  EXPECT_EQ(stats.coverage, PairCoverage::kNoneThroughLandmarks);
}

TEST(GuidedSearchTest, AllPathsThroughLandmarkHub) {
  SearchSetup s(StarGraph(12), {0});
  SearchStats stats;
  const auto spg = s.searcher.Query(3, 9, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(s.g, 3, 9));
  EXPECT_EQ(stats.coverage, PairCoverage::kAllThroughLandmarks);
  // The sparsified star is edgeless: nothing to scan.
  EXPECT_EQ(stats.d_sparsified, kUnreachable);
}

TEST(GuidedSearchTest, QueryWithPrecomputedSketch) {
  SearchSetup s(testing::Figure4Graph(), testing::Figure4Landmarks());
  const Sketch sketch = ComputeSketch(s.scheme.labeling, s.scheme.meta, 5, 10);
  EXPECT_EQ(s.searcher.QueryWithSketch(5, 10, sketch),
            SpgByDoubleBfs(s.g, 5, 10));
}

TEST(GuidedSearchTest, PathGraphLongDistances) {
  // High-diameter regime: every label distance large, search bounded.
  SearchSetup s(PathGraph(200), {100});
  EXPECT_EQ(s.searcher.Query(0, 199), SpgByDoubleBfs(s.g, 0, 199));
  EXPECT_EQ(s.searcher.Query(50, 150), SpgByDoubleBfs(s.g, 50, 150));
  EXPECT_EQ(s.searcher.Query(0, 99), SpgByDoubleBfs(s.g, 0, 99));
}

// A Z pair on the label path: u=0 reaches the landmark 3 over two
// landmark-free paths 0-{1,2}-3 (σ = 2), and 3 reaches the landmark 6 over
// 4 and over 5 (the meta-edge (3, 6), spliced from Δ). 0-7-8 is a dead end.
// With the landmark 6 as an endpoint the search never runs, so u's side
// stays at d = 0 < σ−1 and its Z test reads u's label entry δ(0, 3) = 2:
// u is not adjacent to 3, so its adjacency bit would find no Z vertex and
// lose the paths 0-{1,2}-3.
TEST(GuidedSearchTest, ZPairBelowSigmaMinusOneReadsTheLabel) {
  SearchSetup s(Graph::FromEdges(9, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4},
                                     {4, 6}, {3, 5}, {5, 6}, {0, 7}, {7, 8}}),
                {3, 6});
  const Sketch sketch = ComputeSketch(s.scheme.labeling, s.scheme.meta, 0, 6);
  ASSERT_EQ(sketch.u_anchors, (std::vector<SketchAnchor>{{0, 2}}));
  ASSERT_FALSE(s.adjacency.Adjacent(0, 0));
  for (const auto& [u, v] : {std::pair<VertexId, VertexId>{0, 6}, {6, 0}}) {
    SearchStats stats;
    const auto spg = s.searcher.Query(u, v, &stats);
    EXPECT_EQ(spg, SpgByDoubleBfs(s.g, u, v)) << "u=" << u << " v=" << v;
    EXPECT_EQ(spg.distance, 4u);
    EXPECT_EQ(spg.edges.size(), 8u);
    EXPECT_EQ(stats.coverage, PairCoverage::kAllThroughLandmarks);
    EXPECT_EQ(stats.delta_cache_hits, 1u);
  }
}

// Label-walk marks must not outlive their query. On the graph above, (0, 6)
// walks 0-{1,2}-3 towards the landmark 3, and (8, 6) walks 8-7-0-{1,2}-3
// towards it again. A walk session that reused the first query's serial
// would find 0 already visited, drop 0-{1,2}-3 from the second answer, and
// skip the whole walk when the first pair is asked again.
TEST(GuidedSearchTest, LabelWalkMarksDoNotLeakAcrossQueries) {
  SearchSetup s(Graph::FromEdges(9, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4},
                                     {4, 6}, {3, 5}, {5, 6}, {0, 7}, {7, 8}}),
                {3, 6});
  for (const auto& [u, v] :
       {std::pair<VertexId, VertexId>{0, 6}, {8, 6}, {0, 6}}) {
    SearchStats stats;
    EXPECT_EQ(s.searcher.Query(u, v, &stats), SpgByDoubleBfs(s.g, u, v))
        << "u=" << u << " v=" << v;
    EXPECT_EQ(stats.coverage, PairCoverage::kAllThroughLandmarks);
  }
}

TEST(GuidedSearchTest, LabelWalkCountsOnlySparsifiedEntries) {
  // Every shortest path from u=4 to v=6 runs through the landmark 0. With
  // the depth guides zeroed the sides alternate by size: u's ten leaves
  // make v's side expand until it runs into 0, so u's side stops at depth
  // 1 and the recover search walks labels from 3 down to 0. Joining the
  // second landmark 7 to the walked vertices 3 and 2 adds G entries but no
  // G⁻ entry, so the recover count must not move.
  std::vector<Edge> path = {{4, 3}, {3, 2}, {2, 1}, {1, 0}, {0, 5}, {5, 6}};
  for (VertexId leaf = 8; leaf < 18; ++leaf) path.push_back({4, leaf});
  std::vector<Edge> joined = path;
  joined.insert(joined.end(), {{7, 3}, {7, 2}});
  uint64_t recover[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    SearchSetup s(Graph::FromEdges(18, i == 0 ? path : joined), {0, 7});
    Sketch sketch = ComputeSketch(s.scheme.labeling, s.scheme.meta, 4, 6);
    sketch.d_star_u = 0;
    sketch.d_star_v = 0;
    SearchStats stats;
    EXPECT_EQ(s.searcher.QueryWithSketch(4, 6, sketch, &stats),
              SpgByDoubleBfs(s.g, 4, 6));
    EXPECT_EQ(stats.coverage, PairCoverage::kAllThroughLandmarks);
    recover[i] = stats.edges_scanned_recover;
  }
  EXPECT_EQ(recover[0], 4u);  // deg⁻(3) + deg⁻(2)
  EXPECT_EQ(recover[1], recover[0]);
}

TEST(GuidedSearchTest, LastExpansionKeepsALevelAZPairReads) {
  // u=0 and v=1 at distance 4 three ways: through the landmark r1=2
  // (u-2-4-5-v), through r2=3 (u-7-6-3-v) and in G⁻ (u-7-6-5-v). The
  // anchors (σ_u, σ_v) = (1, 3) at r1 and (3, 1) at r2 give d⊤ = 4 and
  // d*_u = d*_v = 2. The sides reach d = (2, 1) with d* met only on u's
  // side, so v's side takes the last expansion d⊤ allows. Its Z pair at
  // r1 (σ = 3) reads the level that expansion opens: vertex 4 is on the
  // path through r1 but is no meet vertex, so the expansion must settle
  // its whole level, not just the meet set.
  const Graph g = Graph::FromEdges(
      8, {{0, 2}, {2, 4}, {4, 5}, {5, 1}, {1, 3}, {3, 6}, {6, 7}, {7, 0},
          {6, 5}});
  SearchSetup s(g, {2, 3});
  const Sketch sketch = ComputeSketch(s.scheme.labeling, s.scheme.meta, 0, 1);
  ASSERT_EQ(sketch.d_top, 4u);
  ASSERT_EQ(sketch.d_star_u, 2u);
  ASSERT_EQ(sketch.d_star_v, 2u);
  SearchStats stats;
  const auto spg = s.searcher.Query(0, 1, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(g, 0, 1));
  EXPECT_EQ(stats.coverage, PairCoverage::kSomeThroughLandmarks);
}

TEST(ReverseWalkTest, HubMeetVertexWalksBottomUp) {
  // u=0 - a=1 - H=2 - b=3 - v=4 with 200 extra leaves on the non-landmark
  // hub H. The landmark 5 is isolated, so no sketch bound steers the
  // search: the sides alternate and meet at H, which sits unexpanded on
  // both frontiers. Walking back over H's own adjacency would scan
  // deg⁻(H) = 202 edges; the level below H on each side is one degree-2
  // vertex.
  constexpr VertexId kHub = 2;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  for (VertexId leaf = 6; leaf < 206; ++leaf) edges.push_back({kHub, leaf});
  SearchSetup s(Graph::FromEdges(206, std::move(edges)), {5});
  SearchStats stats;
  const auto spg = s.searcher.Query(0, 4, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(s.g, 0, 4));
  EXPECT_EQ(spg.distance, 4u);
  EXPECT_EQ(stats.coverage, PairCoverage::kNoneThroughLandmarks);
  EXPECT_LT(stats.edges_scanned_reverse, 202u);  // deg⁻(H)
}

TEST(ReverseWalkTest, ThinPathThroughWideLevelsWalksTopDown) {
  // u=0 - 1 - 2 - 3 - v=4, and 50 leaves on each endpoint (5..54 on u,
  // 55..104 on v), so every search level holds ~50 vertices while the
  // answer is one path of degree-2 vertices. The landmark 105 hangs off
  // one of u's leaves (d⊤ = 8). A bottom-up walk rescans each searched
  // level, which would cost exactly edges_scanned_search.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 105}};
  for (VertexId leaf = 5; leaf < 55; ++leaf) edges.push_back({0, leaf});
  for (VertexId leaf = 55; leaf < 105; ++leaf) edges.push_back({4, leaf});
  SearchSetup s(Graph::FromEdges(106, std::move(edges)), {105});
  SearchStats stats;
  const auto spg = s.searcher.Query(0, 4, &stats);
  EXPECT_EQ(spg, SpgByDoubleBfs(s.g, 0, 4));
  EXPECT_EQ(spg.distance, 4u);
  EXPECT_LT(stats.edges_scanned_reverse, stats.edges_scanned_search);
}

TEST(ReverseWalkTest, MatchesOracleAndNeverOutscansSearch) {
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"rmat", RMat(9, 4, 0.57, 0.19, 0.19, 3)},
      {"barabasi_albert", BarabasiAlbert(600, 3, 4)},
      {"erdos_renyi", ErdosRenyi(500, 1500, 5)},
      {"grid", GridGraph(20, 25)},
  };
  for (const Family& family : families) {
    // Coverage kSomeThroughLandmarks runs both the reverse search and the
    // Z-pair walks, whose starts can sit below the search horizon.
    size_t some_through_landmarks = 0;
    for (const uint32_t k : {1u, 4u, 16u}) {
      SearchSetup s(family.g, SelectLandmarks(family.g, k));
      std::mt19937_64 rng(k);
      std::uniform_int_distribution<VertexId> pick(
          0, family.g.NumVertices() - 1);
      for (int i = 0; i < 150; ++i) {
        const VertexId u = pick(rng);
        const VertexId v = pick(rng);
        SearchStats stats;
        ASSERT_EQ(s.searcher.Query(u, v, &stats),
                  SpgByDoubleBfs(family.g, u, v))
            << family.name << " |R|=" << k << " u=" << u << " v=" << v;
        ASSERT_LE(stats.edges_scanned_reverse, stats.edges_scanned_search)
            << family.name << " |R|=" << k << " u=" << u << " v=" << v;
        if (stats.coverage == PairCoverage::kSomeThroughLandmarks) {
          ++some_through_landmarks;
        }
      }
    }
    EXPECT_GT(some_through_landmarks, 0u) << family.name;
  }
}

std::vector<VertexId> LevelVector(const BidirectionalSearch& search, int t,
                                  size_t level) {
  const auto span = search.levels(t).Level(level);
  return {span.begin(), span.end()};
}

// Searching G with `blocked` blocked is searching the stored G⁻: for every
// pair of unblocked vertices (all pairs, or `max_pairs` sampled), the same
// sides expand into the same levels, the same meet set and the same
// backward-walk edges, and every expansion scans G⁻'s entries, skipping
// exactly G's other entries as blocked ones.
void ExpectBlockedSearchMatchesReference(const Graph& g,
                                         const std::vector<VertexId>& blocked,
                                         size_t max_pairs = 0) {
  std::vector<bool> is_blocked(g.NumVertices(), false);
  for (const VertexId b : blocked) is_blocked[b] = true;
  const Graph ref = testing::WithoutVertices(g, blocked);
  BidirectionalSearch in_place(g, blocked);
  BidirectionalSearch stored(ref);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (u != v && !is_blocked[u] && !is_blocked[v]) pairs.emplace_back(u, v);
    }
  }
  if (max_pairs > 0 && pairs.size() > max_pairs) {
    std::mt19937_64 rng(g.NumVertices());
    std::shuffle(pairs.begin(), pairs.end(), rng);
    pairs.resize(max_pairs);
  }
  for (const auto& [u, v] : pairs) {
    SCOPED_TRACE(::testing::Message() << "u=" << u << " v=" << v);
    in_place.Reset();
    stored.Reset();
    in_place.Seed(0, u);
    in_place.Seed(1, v);
    stored.Seed(0, u);
    stored.Seed(1, v);
    uint64_t search_scans = 0;
    uint32_t d[2] = {0, 0};
    while (stored.meet_set().empty() &&
           stored.levels(0).LevelSize(d[0]) > 0 &&
           stored.levels(1).LevelSize(d[1]) > 0) {
      const int t =
          stored.levels(0).TotalSize() <= stored.levels(1).TotalSize() ? 0 : 1;
      uint64_t blocked_entries = 0;
      for (const VertexId x : stored.levels(t).Level(d[t])) {
        blocked_entries += g.Degree(x) - ref.Degree(x);
      }
      const LevelScan got = in_place.ExpandLevel(t);
      const LevelScan want = stored.ExpandLevel(t);
      ++d[t];
      ASSERT_EQ(got.scanned, want.scanned);
      ASSERT_EQ(want.blocked, 0u);
      ASSERT_EQ(got.blocked, blocked_entries);
      ASSERT_EQ(LevelVector(in_place, t, d[t]), LevelVector(stored, t, d[t]));
      search_scans += got.scanned;
    }
    ASSERT_EQ(in_place.meet_set(), stored.meet_set());
    ASSERT_EQ(in_place.meet_edges(), stored.meet_edges());
    for (VertexId x = 0; x < g.NumVertices(); ++x) {
      for (int t = 0; t < 2; ++t) {
        ASSERT_EQ(in_place.Depth(t, x), stored.Depth(t, x)) << "x=" << x;
      }
    }
    for (const VertexId m : stored.meet_set()) {
      for (int t = 0; t < 2; ++t) {
        in_place.AddBackwardStart(t, m);
        stored.AddBackwardStart(t, m);
      }
    }
    std::vector<Edge> got_edges;
    std::vector<Edge> want_edges;
    uint64_t got_reverse = 0;
    uint64_t want_reverse = 0;
    for (int t = 0; t < 2; ++t) {
      got_reverse += in_place.RunBackwardWalk(t, &got_edges);
      want_reverse += stored.RunBackwardWalk(t, &want_edges);
    }
    std::sort(got_edges.begin(), got_edges.end());
    std::sort(want_edges.begin(), want_edges.end());
    ASSERT_EQ(got_edges, want_edges);
    // Blocked entries can only steer a level bottom-up, never make it
    // scan more than its search did.
    ASSERT_GE(got_reverse, want_reverse);
    ASSERT_LE(got_reverse, search_scans);
  }
}

TEST(BlockedSearchTest, MatchesStoredSparsifiedGraphOnGraphFamilies) {
  for (const Graph& g :
       {BarabasiAlbert(500, 3, 1), WattsStrogatz(400, 6, 0.2, 2),
        ErdosRenyi(300, 900, 3)}) {
    for (const uint32_t k : {1u, 8u, 40u}) {
      ExpectBlockedSearchMatchesReference(g, SelectLandmarks(g, k), 300);
      ExpectBlockedSearchMatchesReference(
          g, testing::RandomLandmarks(g, k, /*seed=*/k), 300);
    }
  }
  ExpectBlockedSearchMatchesReference(testing::Figure4Graph(),
                                      testing::Figure4Landmarks());
}

TEST(BlockedSearchTest, TopDownWalkIsChargedOnlyUnblockedEntries) {
  // u=0 has nine leaves besides 1, so side 0 walks back from the meet
  // vertex 1 top-down: deg(1) = 3 in G is at most the 10 entries its
  // level 0 scanned. One of the three leads to the blocked 12, so the walk
  // is charged G⁻'s 2. Side 1's level 0 scanned 1 entry, so it walks
  // bottom-up.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {1, 12}};
  for (VertexId leaf = 3; leaf < 12; ++leaf) edges.push_back({0, leaf});
  const Graph g = Graph::FromEdges(13, std::move(edges));
  const VertexId blocked[] = {12};
  BidirectionalSearch search(g, blocked);
  search.Reset();
  search.Seed(0, 0);
  search.Seed(1, 2);
  EXPECT_EQ(search.ExpandLevel(0).scanned, 10u);
  EXPECT_EQ(search.ExpandLevel(1).scanned, 1u);
  ASSERT_EQ(search.meet_set(), std::vector<VertexId>{1});
  search.AddBackwardStart(0, 1);
  search.AddBackwardStart(1, 1);
  std::vector<Edge> walked;
  EXPECT_EQ(search.RunBackwardWalk(0, &walked), 2u);
  EXPECT_EQ(search.RunBackwardWalk(1, &walked), 1u);
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(walked, (std::vector<Edge>{{1, 0}, {1, 2}}));
}

TEST(BlockedSearchTest, EdgeCases) {
  // |R| = 0: G⁻ is G, and nothing is ever skipped.
  ExpectBlockedSearchMatchesReference(BarabasiAlbert(100, 2, 5), {});
  // Landmark 0's neighbours {1, 2} are all landmarks; 2 also touches 3.
  const Graph hub = Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  ExpectBlockedSearchMatchesReference(hub, {0, 1, 2});
  // An all-landmark path component, a cycle holding one landmark, and an
  // isolated landmark.
  const Graph parts = Graph::FromEdges(
      8, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 3}});
  ExpectBlockedSearchMatchesReference(parts, {0, 1, 2, 4, 7});
  // Every vertex blocked: no vertex has a depth, and a searcher whose every
  // vertex is a landmark still answers every pair by recovery alone.
  const Graph path = PathGraph(6);
  const std::vector<VertexId> all = {5, 4, 3, 2, 1, 0};
  const BidirectionalSearch none_left(path, all);
  for (VertexId x = 0; x < path.NumVertices(); ++x) {
    EXPECT_EQ(none_left.Depth(0, x), kUnreachable);
    EXPECT_EQ(none_left.Depth(1, x), kUnreachable);
  }
  SearchSetup s(path, all);
  for (VertexId u = 0; u < path.NumVertices(); ++u) {
    for (VertexId v = 0; v < path.NumVertices(); ++v) {
      SearchStats stats;
      ASSERT_EQ(s.searcher.Query(u, v, &stats), SpgByDoubleBfs(path, u, v));
      EXPECT_EQ(stats.edges_scanned_search, 0u);
    }
  }
}

}  // namespace
}  // namespace qbs
