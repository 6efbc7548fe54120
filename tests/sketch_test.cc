#include <vector>

#include <gtest/gtest.h>

#include "core/label_scan.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/qbs_index.h"
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
using testing::ScopedScanKernel;

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
  const auto landmarks =
      SelectLandmarks(g, p.k, LandmarkStrategy::kHighestDegree, p.seed);
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
// for every sampled pair, and DistanceUpperBound() >= d — for EVERY
// compiled scan kernel (scalar, AVX2), which must also agree with each
// other bit for bit.
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

  std::vector<LabelBound> first_kernel_bounds;
  for (const ScanKernel kernel : SupportedScanKernels()) {
    ScopedScanKernel scoped(kernel);
    const char* kname = ScanOpsFor(kernel).name;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [u, v] = pairs[i];
      const uint32_t d = dists[i];
      const LabelBound bound =
          ComputeLabelBound(index.labeling(), index.meta_graph(), u, v);
      if (d != kUnreachable) {
        EXPECT_LE(bound.lower, d) << kname << " u=" << u << " v=" << v;
        EXPECT_GE(index.DistanceUpperBound(u, v), d) << kname;
      }
      if (bound.upper != kUnreachable) {
        EXPECT_GE(bound.upper, d) << kname << " u=" << u << " v=" << v;
      }
      // Every kernel agrees with the first (scalar).
      if (kernel == SupportedScanKernels().front()) {
        first_kernel_bounds.push_back(bound);
      } else {
        ASSERT_EQ(bound.lower, first_kernel_bounds[i].lower)
            << kname << " u=" << u << " v=" << v;
        ASSERT_EQ(bound.upper, first_kernel_bounds[i].upper)
            << kname << " u=" << u << " v=" << v;
      }
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
  for (const ScanKernel kernel : SupportedScanKernels()) {
    ScopedScanKernel scoped(kernel);
    const char* kname = ScanOpsFor(kernel).name;
    size_t tight = 0;
    for (const VertexId s : sources) {
      const auto dist = BfsDistances(g, s);
      for (VertexId t = 0; t < g.NumVertices(); ++t) {
        if (s == t) continue;
        const LabelBound bound = ComputeLabelBound(l, index.meta_graph(), s, t);
        if (dist[t] != kUnreachable) {
          ASSERT_LE(bound.lower, dist[t]) << kname << " s=" << s << " t=" << t;
          if (bound.upper != kUnreachable) {
            ASSERT_GE(bound.upper, dist[t])
                << kname << " s=" << s << " t=" << t;
          }
        } else {
          ASSERT_EQ(bound.lower, 0u) << kname;
          ASSERT_EQ(bound.upper, kUnreachable) << kname;
        }
        if (bound.lower > 0 && bound.lower == dist[t]) ++tight;
      }
    }
    EXPECT_GT(tight, 0u) << kname;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LabelBoundProperty,
                         ::testing::Values(BoundParam{0, 21, 8},
                                           BoundParam{1, 22, 10},
                                           BoundParam{2, 23, 6},
                                           BoundParam{3, 24, 5},
                                           BoundParam{0, 25, 20}));

}  // namespace
}  // namespace qbs
