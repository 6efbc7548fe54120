#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "core/sketch.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

using testing::Figure4Graph;
using testing::Figure4Landmarks;

class SketchFigure4Test : public ::testing::Test {
 protected:
  SketchFigure4Test()
      : graph_(Figure4Graph()),
        scheme_(BuildLabelingScheme(graph_, Figure4Landmarks())) {}
  Graph graph_;
  LabelingScheme scheme_;
};

// Example 4.7 / Figure 6(b): the sketch for SPG(6, 11).
TEST_F(SketchFigure4Test, GoldenSketchForSpg6_11) {
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 5, 10);
  EXPECT_EQ(s.d_top, 5u);
  // Anchors: (1, 6) with sigma 1; (2, 11) sigma 3; (3, 11) sigma 2.
  ASSERT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.u_anchors[0], (SketchAnchor{0, 1}));
  ASSERT_EQ(s.v_anchors.size(), 2u);
  EXPECT_EQ(s.v_anchors[0], (SketchAnchor{1, 3}));
  EXPECT_EQ(s.v_anchors[1], (SketchAnchor{2, 2}));
  // Meta-edges (1,2), (2,3), (1,3) all participate.
  EXPECT_EQ(s.meta_edges.size(), 3u);
  // Example 4.8: d*_6 = 0 and d*_11 = 2.
  EXPECT_EQ(s.d_star_u, 0u);
  EXPECT_EQ(s.d_star_v, 2u);
}

// The all-edges sweep the meta-edge pass replaced, kept as its oracle:
// every meta-edge on a shortest meta-path of some pair, in Edges() order.
std::vector<MetaEdge> SweepAllMetaEdges(
    const MetaGraph& meta,
    const std::vector<std::pair<LandmarkIndex, LandmarkIndex>>& pairs) {
  std::vector<MetaEdge> out;
  for (const MetaEdge& e : meta.Edges()) {
    for (const auto& [s, t] : pairs) {
      if (meta.EdgeOnShortestPath(e, s, t)) {
        out.push_back(e);
        break;
      }
    }
  }
  return out;
}

// ER, BA, a grid, and a BA graph next to a disjoint grid (landmark pairs
// across the two are unreachable).
Graph MetaEdgeFamilyGraph(int family, uint64_t seed) {
  switch (family) {
    case 0:
      return LargestComponent(ErdosRenyi(150, 320, seed)).graph;
    case 1:
      return BarabasiAlbert(150, 3, seed);
    case 2:
      return GridGraph(10, 12);
    default: {
      std::vector<Edge> edges = BarabasiAlbert(80, 2, seed).EdgeList();
      for (const Edge& e : GridGraph(6, 8).EdgeList()) {
        edges.emplace_back(e.u + 80, e.v + 80);
      }
      return Graph::FromEdges(80 + 48, std::move(edges));
    }
  }
}

TEST(SketchMetaEdgesTest, OnPathLandmarksGiveTheAllEdgeSweep) {
  size_t unreachable_pairs = 0;
  size_t edges_found = 0;
  for (int family = 0; family < 4; ++family) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = MetaEdgeFamilyGraph(family, seed);
      const LabelingScheme scheme = BuildLabelingScheme(
          g, testing::RandomLandmarks(g, 16, 10 * seed + family));
      const MetaGraph& meta = scheme.meta;
      const LandmarkIndex k = meta.num_landmarks();
      Sketch sketch;
      SketchScratch scratch;
      std::vector<LandmarkIndex> on_path;
      for (LandmarkIndex s = 0; s < k; ++s) {
        for (LandmarkIndex t = 0; t < k; ++t) {
          const uint32_t dst = meta.Distance(s, t);
          if (dst == kUnreachable) ++unreachable_pairs;
          std::vector<LandmarkIndex> expected_on_path;
          for (LandmarkIndex x = 0; dst != kUnreachable && x < k; ++x) {
            const uint32_t sx = meta.Distance(s, x);
            const uint32_t xt = meta.Distance(x, t);
            if (sx != kUnreachable && xt != kUnreachable && sx + xt == dst) {
              expected_on_path.push_back(x);
            }
          }
          meta.OnPathLandmarks(s, t, &on_path);
          ASSERT_EQ(on_path, expected_on_path) << "s=" << s << " t=" << t;
          if (s == t) {
            ASSERT_EQ(on_path, std::vector<LandmarkIndex>{s});
          }

          scratch.min_pairs = {{s, t}};
          ComputeSketchMetaEdges(meta, &sketch, &scratch);
          ASSERT_EQ(sketch.meta_edges, SweepAllMetaEdges(meta, {{s, t}}))
              << "family=" << family << " seed=" << seed << " s=" << s
              << " t=" << t;
          edges_found += sketch.meta_edges.size();
        }
        // Several minimizing pairs at once: one sorted, de-duplicated union.
        scratch.min_pairs.clear();
        for (LandmarkIndex t = 0; t < k; ++t) {
          scratch.min_pairs.emplace_back(s, t);
        }
        ComputeSketchMetaEdges(meta, &sketch, &scratch);
        ASSERT_EQ(sketch.meta_edges,
                  SweepAllMetaEdges(meta, scratch.min_pairs))
            << "family=" << family << " seed=" << seed << " s=" << s;
      }
    }
  }
  EXPECT_GT(unreachable_pairs, 0u);
  EXPECT_GT(edges_found, 0u);
}

TEST_F(SketchFigure4Test, SketchIsSymmetricInBound) {
  const Sketch a = ComputeSketch(scheme_.labeling, scheme_.meta, 5, 10);
  const Sketch b = ComputeSketch(scheme_.labeling, scheme_.meta, 10, 5);
  EXPECT_EQ(a.d_top, b.d_top);
  EXPECT_EQ(a.meta_edges, b.meta_edges);
  EXPECT_EQ(a.u_anchors, b.v_anchors);
}

TEST_F(SketchFigure4Test, LandmarkEndpointUsesVirtualAnchor) {
  // Query from landmark 1 (vertex 0): single anchor (rank 0, delta 0).
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 0, 10);
  ASSERT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.u_anchors[0], (SketchAnchor{0, 0}));
  EXPECT_EQ(s.d_star_u, 0u);
  // d(1, 11) = 4 (1-2-9-10-11 via landmarks or 1-2-3-12-11): d_top tight.
  EXPECT_EQ(s.d_top, 4u);
}

TEST_F(SketchFigure4Test, BothEndpointsLandmarks) {
  const Sketch s = ComputeSketch(scheme_.labeling, scheme_.meta, 0, 2);
  EXPECT_EQ(s.d_top, 2u);  // d_M(1, 3) = 2
  EXPECT_EQ(s.u_anchors.size(), 1u);
  EXPECT_EQ(s.v_anchors.size(), 1u);
}

TEST_F(SketchFigure4Test, NoLandmarkRouteIsUnbounded) {
  // A 2-vertex component disconnected from all landmarks.
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto scheme = BuildLabelingScheme(g, {1});
  const Sketch s = ComputeSketch(scheme.labeling, scheme.meta, 3, 5);
  EXPECT_EQ(s.d_top, kUnreachable);
  EXPECT_TRUE(s.u_anchors.empty());
}

// Property (Corollary 4.6): d⊤ >= d_G(u, v); equality iff some shortest
// path passes through a landmark.
struct BoundParam {
  int family;
  uint64_t seed;
  uint32_t k;
};

class SketchBoundProperty : public ::testing::TestWithParam<BoundParam> {};

TEST_P(SketchBoundProperty, UpperBoundAndTightness) {
  const auto& p = GetParam();
  Graph g;
  switch (p.family) {
    case 0:
      g = BarabasiAlbert(250, 2, p.seed);
      break;
    case 1:
      g = WattsStrogatz(250, 4, 0.2, p.seed);
      break;
    default:
      g = LargestComponent(RMat(8, 4, 0.57, 0.19, 0.19, p.seed)).graph;
      break;
  }
  const auto landmarks = SelectLandmarks(g, p.k);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  std::vector<bool> is_landmark(g.NumVertices(), false);
  for (VertexId r : landmarks) is_landmark[r] = true;

  const auto pairs = SampleQueryPairs(g, 60, p.seed + 1);
  for (const auto& [u, v] : pairs) {
    const auto dist_u = BfsDistances(g, u);
    const Sketch s = ComputeSketch(scheme.labeling, scheme.meta, u, v);
    ASSERT_GE(s.d_top, dist_u[v]);
    // Tight iff a shortest path crosses a landmark, which we brute-force:
    // exists r with d(u,r) + d(r,v) == d(u,v).
    const auto dist_v = BfsDistances(g, v);
    bool through_landmark = false;
    for (VertexId r : landmarks) {
      if (dist_u[r] != kUnreachable && dist_v[r] != kUnreachable &&
          dist_u[r] + dist_v[r] == dist_u[v]) {
        through_landmark = true;
        break;
      }
    }
    EXPECT_EQ(s.d_top == dist_u[v], through_landmark)
        << "u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SketchBoundProperty,
    ::testing::Values(BoundParam{0, 1, 5}, BoundParam{0, 2, 10},
                      BoundParam{1, 3, 5}, BoundParam{1, 4, 10},
                      BoundParam{2, 5, 5}, BoundParam{2, 6, 10}));

// --- ComputeLabelBound: lower = max |δu - δv|, upper = min δu + δv. ---

class LabelBoundProperty : public ::testing::TestWithParam<BoundParam> {};

// The label bounds never disagree with BfsDistances: lower <= d <= upper
// for every sampled pair, and DistanceUpperBound() >= d.
TEST_P(LabelBoundProperty, LabelBoundsNeverDisagreeWithBfs) {
  const auto& p = GetParam();
  Graph g = testing::SmallFamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  const QbsIndex index = QbsIndex::Build(g, options);

  std::vector<QueryPair> pairs;
  std::vector<uint32_t> dists;
  for (const auto& [u, v] : SampleQueryPairs(g, 120, p.seed)) {
    if (u == v) continue;
    pairs.push_back({u, v});
    dists.push_back(BfsDistances(g, u)[v]);
  }

  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const uint32_t d = dists[i];
    const LabelBound bound =
        ComputeLabelBound(index.labeling(), index.meta_graph(), u, v);
    if (d != kUnreachable) {
      EXPECT_LE(bound.lower, d) << "u=" << u << " v=" << v;
      EXPECT_GE(index.DistanceUpperBound(u, v), d);
    }
    if (bound.upper != kUnreachable) {
      EXPECT_GE(bound.upper, d) << "u=" << u << " v=" << v;
    }
  }
}

// Every pair reachable from a spread of sources, landmarks included:
// lower never exceeds the true distance and upper never undercuts it;
// disconnected pairs share no landmark. The bound is tight somewhere: a
// landmark endpoint reads the exact distance off the other side's label.
TEST_P(LabelBoundProperty, LowerBoundNeverExceedsBfsDistances) {
  const auto& p = GetParam();
  Graph g = testing::SmallFamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  const QbsIndex index = QbsIndex::Build(g, options);
  const PathLabeling& l = index.labeling();

  std::vector<VertexId> sources = index.landmarks();
  for (VertexId s = 0; s < g.NumVertices(); s += g.NumVertices() / 8 + 1) {
    sources.push_back(s);
  }
  size_t tight = 0;
  for (const VertexId s : sources) {
    const auto dist = BfsDistances(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      if (s == t) continue;
      const LabelBound bound = ComputeLabelBound(l, index.meta_graph(), s, t);
      if (dist[t] != kUnreachable) {
        ASSERT_LE(bound.lower, dist[t]) << "s=" << s << " t=" << t;
        if (bound.upper != kUnreachable) {
          ASSERT_GE(bound.upper, dist[t]) << "s=" << s << " t=" << t;
        }
      } else {
        ASSERT_EQ(bound.lower, 0u);
        ASSERT_EQ(bound.upper, kUnreachable);
      }
      if (bound.lower > 0 && bound.lower == dist[t]) ++tight;
    }
  }
  EXPECT_GT(tight, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LabelBoundProperty,
                         ::testing::Values(BoundParam{0, 21, 8},
                                           BoundParam{1, 22, 10},
                                           BoundParam{2, 23, 6},
                                           BoundParam{3, 24, 5},
                                           BoundParam{0, 25, 20}));


// --- The row scans against the per-landmark reference. ---

// Label-row families the generator draws from. Values stay in
// [1, 0xFFFE]: a stored label of a non-landmark vertex is never 0 (that
// would make the vertex the landmark itself).
enum class RowFamily {
  kAllUnreachable,   // every lane absent
  kSingleLandmark,   // exactly one present lane
  kSparse,           // ~30% present, small distances
  kDenseSmall,       // every lane present, small distances
  kRandomWide,       // ~70% present, values across the full range
  kSaturating,       // present values within 16 of the sentinel
};

constexpr RowFamily kFamilies[] = {
    RowFamily::kAllUnreachable, RowFamily::kSingleLandmark,
    RowFamily::kSparse,         RowFamily::kDenseSmall,
    RowFamily::kRandomWide,     RowFamily::kSaturating,
};

void FillRow(PathLabeling* labeling, VertexId t, RowFamily family,
             std::mt19937_64* rng) {
  const uint32_t k = labeling->num_landmarks();
  std::uniform_int_distribution<uint32_t> small(1, 40);
  std::uniform_int_distribution<uint32_t> wide(1, 0xFFFE);
  std::uniform_int_distribution<uint32_t> sat(0xFFF0, 0xFFFE);
  std::uniform_int_distribution<uint32_t> pct(0, 99);
  switch (family) {
    case RowFamily::kAllUnreachable:
      break;  // rows start all-kInfDist
    case RowFamily::kSingleLandmark:
      labeling->Set(t, static_cast<LandmarkIndex>((*rng)() % k),
                    static_cast<DistT>(small(*rng)));
      break;
    case RowFamily::kSparse:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 30) {
          labeling->Set(t, i, static_cast<DistT>(small(*rng)));
        }
      }
      break;
    case RowFamily::kDenseSmall:
      for (LandmarkIndex i = 0; i < k; ++i) {
        labeling->Set(t, i, static_cast<DistT>(small(*rng)));
      }
      break;
    case RowFamily::kRandomWide:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 70) labeling->Set(t, i, static_cast<DistT>(wide(*rng)));
      }
      break;
    case RowFamily::kSaturating:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 80) labeling->Set(t, i, static_cast<DistT>(sat(*rng)));
      }
      break;
  }
}

// A labelling whose first k vertices are the landmarks and whose
// remaining `extra` vertices carry synthetic rows (filled by the caller).
PathLabeling MakeSyntheticLabeling(uint32_t k, VertexId extra) {
  std::vector<VertexId> landmarks(k);
  for (uint32_t i = 0; i < k; ++i) landmarks[i] = i;
  return PathLabeling(k + extra, std::move(landmarks));
}

// A per-landmark loop over Get(), independent of the row scans in
// core/sketch.cc, so a bug there cannot propagate into the reference.
std::vector<SketchAnchor> ReferenceCandidates(const PathLabeling& labeling,
                                              VertexId t) {
  std::vector<SketchAnchor> out;
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    const DistT d = labeling.Get(t, i);
    if (d != kInfDist) out.push_back(SketchAnchor{i, d});
  }
  return out;
}

class RowScanReference : public ::testing::TestWithParam<uint32_t> {};

// Every family pair at |R| straddling the 16-lane padding (all-absent
// rows, single lanes, near-sentinel sums that exceed 16 bits):
// ComputeLabelBound and ComputeAnchorCandidatesInto equal the reference.
TEST_P(RowScanReference, BoundAndCandidatesMatchReference) {
  const uint32_t k = GetParam();
  const MetaGraph meta(k);  // unused for a non-landmark pair
  std::vector<SketchAnchor> got;
  for (const RowFamily fu : kFamilies) {
    for (const RowFamily fv : kFamilies) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed * 7919 + k * 31 +
                            static_cast<uint64_t>(fu) * 131 +
                            static_cast<uint64_t>(fv) * 1031);
        PathLabeling labeling = MakeSyntheticLabeling(k, 2);
        const VertexId u = k;
        const VertexId v = k + 1;
        FillRow(&labeling, u, fu, &rng);
        FillRow(&labeling, v, fv, &rng);
        const std::string where =
            "k=" + std::to_string(k) + " seed=" + std::to_string(seed) +
            " fu=" + std::to_string(static_cast<int>(fu)) +
            " fv=" + std::to_string(static_cast<int>(fv));
        const auto want_u = ReferenceCandidates(labeling, u);
        const auto want_v = ReferenceCandidates(labeling, v);
        ComputeAnchorCandidatesInto(labeling, u, &got);
        ASSERT_EQ(got, want_u) << where;
        ComputeAnchorCandidatesInto(labeling, v, &got);
        ASSERT_EQ(got, want_v) << where;
        const LabelBound want = ComputeLabelBoundFromCandidates(want_u, want_v);
        const LabelBound bound = ComputeLabelBound(labeling, meta, u, v);
        ASSERT_EQ(bound.lower, want.lower) << where;
        ASSERT_EQ(bound.upper, want.upper) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, RowScanReference,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 33u, 64u,
                                           257u));

// --- The row padding/alignment invariant, through build and load. ---

void CheckPaddingInvariant(const PathLabeling& labeling) {
  const uint32_t k = labeling.num_landmarks();
  const uint32_t stride = labeling.row_stride();
  EXPECT_EQ(stride, (k + kLabelRowLaneAlign - 1) / kLabelRowLaneAlign *
                        kLabelRowLaneAlign);
  for (VertexId v = 0; v < labeling.num_vertices(); ++v) {
    const DistT* row = labeling.Row(v);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(row) % 32, 0u) << "v=" << v;
    for (uint32_t i = k; i < stride; ++i) {
      ASSERT_EQ(row[i], kInfDist) << "padding lane " << i << " of v=" << v;
    }
  }
  // Padding must not leak into the paper-facing size(L).
  EXPECT_EQ(labeling.SizeBytes(),
            static_cast<uint64_t>(labeling.num_vertices()) * k * sizeof(DistT));
}

TEST(LabelRowPadding, RowsPaddedAndAlignedAfterBuildAndLoad) {
  Graph g = BarabasiAlbert(200, 3, 5);
  // k = 20 -> stride 32: a non-trivial pad of 12 lanes.
  const auto landmarks = SelectLandmarks(g, 20);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  CheckPaddingInvariant(scheme.labeling);

  // The serialization round trip rebuilds the padded, aligned matrix via
  // the constructor + Set path: the invariant must survive a load.
  const std::string path =
      ::testing::TempDir() + "/label_row_padding_roundtrip.qbs";
  ASSERT_TRUE(SaveLabelingScheme(scheme, path));
  auto loaded = LoadLabelingScheme(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  CheckPaddingInvariant(loaded->labeling);
  ASSERT_EQ(loaded->labeling.num_landmarks(), scheme.labeling.num_landmarks());
  for (VertexId v = 0; v < scheme.labeling.num_vertices(); ++v) {
    for (LandmarkIndex i = 0; i < scheme.labeling.num_landmarks(); ++i) {
      ASSERT_EQ(loaded->labeling.Get(v, i), scheme.labeling.Get(v, i));
    }
  }
}

}  // namespace
}  // namespace qbs
