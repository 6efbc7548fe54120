#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/qbs_index.h"
#include "core/landmark_selection.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace qbs {
namespace {

using testing::Figure4Graph;
using testing::Figure4Landmarks;

// Expected labels from the paper's Figure 4(c) (paper vertex -> entries).
struct ExpectedLabel {
  int vertex;  // paper id
  std::vector<std::pair<int, int>> entries;  // (paper landmark id, dist)
};

const ExpectedLabel kFigure4Labels[] = {
    {4, {{1, 1}, {3, 1}}},
    {5, {{1, 1}, {3, 3}}},
    {6, {{1, 1}}},
    {7, {{1, 2}, {2, 2}}},
    {8, {{2, 1}}},
    {9, {{2, 1}}},
    {10, {{2, 2}, {3, 3}}},
    {11, {{2, 3}, {3, 2}}},
    {12, {{3, 1}}},
    {13, {{1, 3}, {3, 1}}},
    {14, {{1, 2}, {3, 2}}},
};

void CheckFigure4Labels(const LabelingScheme& scheme) {
  const PathLabeling& l = scheme.labeling;
  for (const auto& expected : kFigure4Labels) {
    const VertexId v = static_cast<VertexId>(expected.vertex - 1);
    for (uint32_t i = 0; i < 3; ++i) {
      DistT want = kInfDist;
      for (const auto& [lm, d] : expected.entries) {
        if (lm - 1 == static_cast<int>(i)) want = static_cast<DistT>(d);
      }
      EXPECT_EQ(l.Get(v, i), want)
          << "vertex " << expected.vertex << " landmark " << i + 1;
    }
  }
  // Landmarks carry no labels.
  for (VertexId lm : Figure4Landmarks()) {
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(l.Get(lm, i), kInfDist);
    }
  }
}

TEST(LabelingTest, Figure4GoldenLabels) {
  const auto scheme = BuildLabelingScheme(Figure4Graph(), Figure4Landmarks());
  CheckFigure4Labels(scheme);
}

TEST(LabelingTest, Figure4GoldenMetaGraph) {
  // Example 4.3/4.4: meta-edges (1,2) weight 1, (2,3) weight 1, and (1,3)
  // weight 2 (one shortest path 1-4-3 avoiding landmark 2).
  const auto scheme = BuildLabelingScheme(Figure4Graph(), Figure4Landmarks());
  EXPECT_EQ(scheme.meta.Edges().size(), 3u);
  EXPECT_EQ(scheme.meta.EdgeWeight(0, 1), 1u);
  EXPECT_EQ(scheme.meta.EdgeWeight(1, 2), 1u);
  EXPECT_EQ(scheme.meta.EdgeWeight(0, 2), 2u);
}

TEST(LabelingTest, Figure4ParallelMatchesSequential) {
  const auto seq = BuildLabelingScheme(Figure4Graph(), Figure4Landmarks());
  const auto par = BuildLabelingScheme(Figure4Graph(), Figure4Landmarks(),
                                       /*num_threads=*/4);
  CheckFigure4Labels(par);
  EXPECT_EQ(seq.meta.Edges(), par.meta.Edges());
  EXPECT_EQ(seq.labeling.NumEntries(), par.labeling.NumEntries());
}

TEST(LabelingTest, NumEntriesAndSize) {
  const auto scheme = BuildLabelingScheme(Figure4Graph(), Figure4Landmarks());
  // Figure 4(c) lists 18 entries over 11 labelled vertices.
  EXPECT_EQ(scheme.labeling.NumEntries(), 18u);
  EXPECT_EQ(scheme.labeling.SizeBytes(), 14u * 3u * sizeof(DistT));
}

TEST(LabelingTest, EmptyLandmarkSet) {
  const auto scheme = BuildLabelingScheme(Figure4Graph(), {});
  EXPECT_EQ(scheme.labeling.NumEntries(), 0u);
  EXPECT_EQ(scheme.meta.num_landmarks(), 0u);
}

TEST(LabelingTest, SingleLandmarkLabelsWholeComponent) {
  Graph g = PathGraph(6);
  const auto scheme = BuildLabelingScheme(g, {0});
  for (VertexId v = 1; v < 6; ++v) {
    EXPECT_EQ(scheme.labeling.Get(v, 0), v);
  }
  EXPECT_TRUE(scheme.meta.Edges().empty());
}

TEST(LabelingTest, DisconnectedVertexUnlabeled) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto scheme = BuildLabelingScheme(g, {0});
  EXPECT_EQ(scheme.labeling.Get(1, 0), 1);
  EXPECT_EQ(scheme.labeling.Get(2, 0), kInfDist);
  EXPECT_EQ(scheme.labeling.Get(3, 0), kInfDist);
}

// The labelling BFS switches direction; BfsDistances does not. Builds the
// scheme and checks every landmark column against the plain BFS: the
// depths derived from (L, M) must equal BfsDistances, and the labels and
// M's edges at the landmark must follow Algorithm 2's rule read off those
// depths. The root is in QL; a vertex is QL iff a neighbour one level up is
// QL; a landmark never is, and has a meta-edge iff it would have been. So a
// QL parent beats a QN parent on bottom-up levels too.
void ExpectColumnsMatchPlainBfs(const Graph& g,
                                const std::vector<VertexId>& landmarks) {
  const VertexId n = g.NumVertices();
  const LabelingScheme scheme = BuildLabelingScheme(g, landmarks);
  const PathLabeling& labeling = scheme.labeling;
  for (LandmarkIndex i = 0; i < landmarks.size(); ++i) {
    const std::vector<uint32_t> depth = BfsDistances(g, landmarks[i]);
    const uint32_t* meta_row = scheme.meta.DistanceRow(i);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(DerivedDepth(labeling, meta_row, v), depth[v])
          << "landmark " << landmarks[i] << " v=" << v;
    }

    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return depth[a] < depth[b];
    });
    std::vector<bool> in_ql(n, false);
    std::vector<uint32_t> meta_weight(landmarks.size(), kUnreachable);
    meta_weight[i] = 0;
    for (const VertexId v : order) {
      const int32_t rank = labeling.LandmarkRank(v);
      bool via_l = v == landmarks[i];
      if (depth[v] != kUnreachable && !via_l) {
        for (const VertexId w : g.Neighbors(v)) {
          via_l |= depth[w] + 1 == depth[v] && in_ql[w];
        }
        if (via_l && rank >= 0) meta_weight[rank] = depth[v];
      }
      in_ql[v] = via_l && (rank < 0 || v == landmarks[i]);
      const DistT want = in_ql[v] && v != landmarks[i]
                             ? static_cast<DistT>(depth[v])
                             : kInfDist;
      ASSERT_EQ(labeling.Get(v, i), want)
          << "landmark " << landmarks[i] << " v=" << v;
    }
    for (LandmarkIndex j = 0; j < landmarks.size(); ++j) {
      EXPECT_EQ(scheme.meta.EdgeWeight(i, j), meta_weight[j])
          << "meta-edge (" << landmarks[i] << ", " << landmarks[j] << ")";
    }
  }
}

TEST(LabelingTest, ColumnDepthsMatchPlainBfs) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph er = ErdosRenyi(600, 1800, seed);
    ExpectColumnsMatchPlainBfs(er, SelectLandmarks(er, 8));
    ExpectColumnsMatchPlainBfs(er, {0, 123, 599});
    const Graph ba = BarabasiAlbert(800, 4, seed);
    ExpectColumnsMatchPlainBfs(ba, SelectLandmarks(ba, 8));
    ExpectColumnsMatchPlainBfs(ba, {0, 400, 799});
  }
  // A clique: once the root's 63 neighbours are settled, the next level
  // runs bottom-up.
  ExpectColumnsMatchPlainBfs(CompleteGraph(64), {0});
  ExpectColumnsMatchPlainBfs(CompleteGraph(64), {0, 1, 2});
  ExpectColumnsMatchPlainBfs(GridGraph(8, 9), {10, 0, 71});
  ExpectColumnsMatchPlainBfs(PathGraph(17), {0, 8});
  ExpectColumnsMatchPlainBfs(CycleGraph(12), {3, 9});
  ExpectColumnsMatchPlainBfs(StarGraph(50), {1, 0});
  ExpectColumnsMatchPlainBfs(PathGraph(1), {0});
  // Two components: the other one stays unreached.
  const Graph two = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  ExpectColumnsMatchPlainBfs(two, {0, 4});
  ExpectColumnsMatchPlainBfs(Figure4Graph(), Figure4Landmarks());
}

// Lemma 5.2 (determinism): permuting the landmark order produces the same
// labelling up to column reindexing, sequentially and in parallel.
class LabelingDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelingDeterminism, OrderAndThreadInvariant) {
  const uint64_t seed = GetParam();
  Graph g = BarabasiAlbert(300, 3, seed);
  std::vector<VertexId> landmarks = SelectLandmarks(g, 8);
  const auto base = BuildLabelingScheme(g, landmarks);

  std::vector<VertexId> shuffled = landmarks;
  Rng rng(seed * 7 + 1);
  rng.Shuffle(shuffled);
  const auto perm =
      BuildLabelingScheme(g, shuffled, /*num_threads=*/0);  // all threads

  // Map shuffled column -> base column and compare every entry.
  std::vector<uint32_t> to_base(landmarks.size());
  for (uint32_t i = 0; i < shuffled.size(); ++i) {
    const auto it =
        std::find(landmarks.begin(), landmarks.end(), shuffled[i]);
    ASSERT_NE(it, landmarks.end());
    to_base[i] = static_cast<uint32_t>(it - landmarks.begin());
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t i = 0; i < shuffled.size(); ++i) {
      ASSERT_EQ(perm.labeling.Get(v, i), base.labeling.Get(v, to_base[i]))
          << "v=" << v;
    }
  }
  // Meta-graphs agree after rank translation.
  for (uint32_t i = 0; i < shuffled.size(); ++i) {
    for (uint32_t j = 0; j < shuffled.size(); ++j) {
      ASSERT_EQ(perm.meta.EdgeWeight(i, j),
                base.meta.EdgeWeight(to_base[i], to_base[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelingDeterminism,
                         ::testing::Values(1, 2, 3, 4));

// Brute-force conformance with Definition 4.2 / 4.1 across families, seeds
// and landmark counts.
struct DefinitionParam {
  int family;
  uint64_t seed;
  uint32_t k;
};

class LabelingDefinition : public ::testing::TestWithParam<DefinitionParam> {
};

TEST_P(LabelingDefinition, MatchesBruteForce) {
  const auto& p = GetParam();
  Graph g;
  switch (p.family) {
    case 0:
      g = BarabasiAlbert(120, 2, p.seed);
      break;
    case 1:
      g = LargestComponent(ErdosRenyi(120, 220, p.seed)).graph;
      break;
    case 2:
      g = WattsStrogatz(120, 4, 0.2, p.seed);
      break;
    default:
      g = GridGraph(10, 12);
      break;
  }
  const auto landmarks = SelectLandmarks(g, p.k);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  std::string message;
  EXPECT_TRUE(testing::VerifyLabelingDefinition(g, scheme, &message))
      << message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LabelingDefinition,
    ::testing::Values(DefinitionParam{0, 1, 4}, DefinitionParam{0, 2, 8},
                      DefinitionParam{1, 3, 4}, DefinitionParam{1, 4, 8},
                      DefinitionParam{2, 5, 4}, DefinitionParam{2, 6, 8},
                      DefinitionParam{3, 7, 5},
                      DefinitionParam{0, 8, 1},
                      DefinitionParam{1, 9, 16}));

TEST(LandmarkSelectionTest, HighestDegreeOrder) {
  Graph g = StarGraph(10);
  const auto landmarks = SelectLandmarks(g, 3);
  ASSERT_EQ(landmarks.size(), 3u);
  EXPECT_EQ(landmarks[0], 0u);  // the hub
  // Remaining ties broken by ascending id.
  EXPECT_EQ(landmarks[1], 1u);
  EXPECT_EQ(landmarks[2], 2u);
}

TEST(LandmarkSelectionTest, CountClampedToVertices) {
  Graph g = PathGraph(5);
  EXPECT_EQ(SelectLandmarks(g, 100).size(), 5u);
}

// Both references at once: every column against the plain BFS, and every
// entry against the brute-force Definition 4.2.
void ExpectMatchesReferences(const Graph& g,
                             const std::vector<VertexId>& landmarks) {
  ExpectColumnsMatchPlainBfs(g, landmarks);
  const LabelingScheme scheme = BuildLabelingScheme(g, landmarks);
  std::string message;
  EXPECT_TRUE(testing::VerifyLabelingDefinition(g, scheme, &message))
      << message;
}

// The build carries one bit lane per landmark, 32 to a word up to |R| =
// 32 and 64 to a word beyond: these counts fill the last 32-bit word
// (32), move to 64-bit words (33), fill a 64-bit word exactly, spill one
// lane into the next, and do the same at two words, where the word count
// stops being a compile-time constant.
TEST(LabelingTest, LaneWordBoundaries) {
  const Graph ba = BarabasiAlbert(200, 3, 11);
  for (const uint32_t k : {31u, 32u, 33u, 63u, 64u, 65u, 128u, 129u}) {
    SCOPED_TRACE("|R| = " + std::to_string(k));
    ExpectMatchesReferences(ba, SelectLandmarks(ba, k));
  }
  const Graph er = LargestComponent(ErdosRenyi(220, 440, 11)).graph;
  ExpectMatchesReferences(er, SelectLandmarks(er, 33));
  ExpectMatchesReferences(er, SelectLandmarks(er, 65));
  ExpectMatchesReferences(er, SelectLandmarks(er, 129));
}

TEST(LabelingTest, EveryVertexALandmark) {
  for (const Graph& g : {GridGraph(6, 7), BarabasiAlbert(150, 2, 3)}) {
    std::vector<VertexId> all(g.NumVertices());
    std::iota(all.begin(), all.end(), 0);
    ExpectMatchesReferences(g, all);
    EXPECT_EQ(BuildLabelingScheme(g, all).labeling.NumEntries(), 0u);
  }
}

TEST(LabelingTest, AdjacentLandmarks) {
  ExpectMatchesReferences(PathGraph(9), {4, 5});
  ExpectMatchesReferences(CycleGraph(10), {1, 0});
  const Graph ba = BarabasiAlbert(300, 3, 7);
  ExpectMatchesReferences(ba, {0, ba.Neighbors(0)[0]});
  // The edge between them is a meta-edge of weight 1 in both lanes.
  const LabelingScheme scheme = BuildLabelingScheme(PathGraph(9), {4, 5});
  EXPECT_EQ(scheme.meta.EdgeWeight(0, 1), 1u);
}

// A BA graph with a 60-vertex path hanging off vertex 299. From nine
// low-degree landmarks, one at the path's far end, the first level's
// frontier is too light to pull, the BA core's middle levels pull, and
// the levels that walk the path push again.
TEST(LabelingTest, PushPullPushLevels) {
  const Graph ba = BarabasiAlbert(300, 3, 5);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < ba.NumVertices(); ++u) {
    for (const VertexId v : ba.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const VertexId n = 360;
  for (VertexId v = 299; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  const Graph g = Graph::FromEdges(n, std::move(edges));
  std::vector<VertexId> landmarks = {n - 1};
  for (VertexId v = 290; v < 298; ++v) landmarks.push_back(v);
  ExpectMatchesReferences(g, landmarks);
}

// Labels are DistT, whose top value marks an absent entry: the deepest
// vertex a build can label sits at depth kInfDist - 1.
TEST(LabelingTest, DeepestRepresentableDepthBuilds) {
  const Graph g = PathGraph(65535);
  const LabelingScheme scheme = BuildLabelingScheme(g, {0});
  EXPECT_EQ(scheme.labeling.Get(65534, 0), 65534);
  const QbsIndex index = QbsIndex::BuildWithLandmarks(g, {0});
  const QueryResponse answer =
      index.Query(QueryRequest(0, 65534, QueryMode::kDistance));
  EXPECT_EQ(answer.distance(), 65534u);
}

TEST(LabelingDeathTest, DepthPastDistTAborts) {
  const Graph g = PathGraph(65536);
  EXPECT_DEATH(BuildLabelingScheme(g, {0}), "lhs=65535 rhs=65535");
}

// Pull levels split over blocks of vertices on the worker threads; each
// vertex writes only its own lanes and label row, so every thread count
// must produce the same bytes. BA(30000, 4) spans 30 blocks, so each pull
// level is spread over many ParallelFor chunks; |R| = 70 takes two words.
TEST(LabelingTest, ThreadCountDoesNotChangeTheScheme) {
  const Graph g = BarabasiAlbert(30000, 4, 17);
  for (const uint32_t k : {20u, 70u}) {
    const std::vector<VertexId> landmarks = SelectLandmarks(g, k);
    const LabelingScheme one = BuildLabelingScheme(g, landmarks, 1);
    for (const size_t threads : {2u, 4u}) {
      const LabelingScheme many = BuildLabelingScheme(g, landmarks, threads);
      const std::span<const DistT> rows = many.labeling.Rows();
      EXPECT_TRUE(std::ranges::equal(one.labeling.Rows(), rows))
          << "|R|=" << k << " threads=" << threads;
      EXPECT_EQ(one.meta.Edges(), many.meta.Edges())
          << "|R|=" << k << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace qbs
