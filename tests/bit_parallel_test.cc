// Bit-parallel label masks: definitional correctness against brute-force
// BFS, soundness/tightness of the label distance bounds, and the d <= 2
// label-only query fast path (distance AND full SPG with zero search,
// reverse, or recover edge scans).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/guided_search.h"
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

Graph FamilyGraph(int family, uint64_t seed) {
  switch (family) {
    case 0:
      return BarabasiAlbert(150, 3, seed);
    case 1:
      return LargestComponent(ErdosRenyi(150, 320, seed)).graph;
    case 2:
      return WattsStrogatz(150, 4, 0.2, seed);
    default:
      return GridGraph(10, 12);
  }
}

struct BpParam {
  int family;
  uint64_t seed;
  uint32_t k;
};

class BitParallelDefinition : public ::testing::TestWithParam<BpParam> {};

// S_r^{-1}(v) / S_r^{0}(v) bits must match their definition exactly: bit j
// set iff the j-th selected neighbour u_j of r satisfies
// d(u_j, v) == d(r, v) - 1 (resp. == d(r, v)), for every vertex v.
TEST_P(BitParallelDefinition, MasksMatchBruteForce) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  const auto landmarks =
      SelectLandmarks(g, p.k, LandmarkStrategy::kHighestDegree, p.seed);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  const PathLabeling& l = scheme.labeling;
  ASSERT_TRUE(l.has_bp_masks());

  for (LandmarkIndex i = 0; i < l.num_landmarks(); ++i) {
    const VertexId root = l.LandmarkVertex(i);
    const auto depth = BfsDistances(g, root);

    // The selected set is the first <= 64 non-landmark neighbours of root
    // in adjacency order.
    std::vector<VertexId> expected_selected;
    for (VertexId w : g.Neighbors(root)) {
      if (l.IsLandmark(w)) continue;
      expected_selected.push_back(w);
      if (expected_selected.size() == 64) break;
    }
    ASSERT_EQ(l.BpSelected(i), expected_selected);

    std::vector<std::vector<uint32_t>> dsel;
    dsel.reserve(expected_selected.size());
    for (VertexId u : expected_selected) dsel.push_back(BfsDistances(g, u));

    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const BpMask m = l.GetBpMask(v, i);
      if (depth[v] == 0 || depth[v] == kUnreachable) {
        EXPECT_EQ(m.s_minus, 0u) << "root/unreached v=" << v;
        EXPECT_EQ(m.s_zero, 0u) << "root/unreached v=" << v;
        continue;
      }
      uint64_t want_minus = 0;
      uint64_t want_zero = 0;
      for (size_t j = 0; j < expected_selected.size(); ++j) {
        if (dsel[j][v] + 1 == depth[v]) want_minus |= 1ull << j;
        if (dsel[j][v] == depth[v]) want_zero |= 1ull << j;
      }
      ASSERT_EQ(m.s_minus, want_minus)
          << "landmark " << i << " v=" << v << " depth=" << depth[v];
      ASSERT_EQ(m.s_zero, want_zero)
          << "landmark " << i << " v=" << v << " depth=" << depth[v];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitParallelDefinition,
                         ::testing::Values(BpParam{0, 1, 4}, BpParam{0, 2, 8},
                                           BpParam{1, 3, 6}, BpParam{2, 4, 4},
                                           BpParam{3, 5, 5},
                                           BpParam{0, 6, 1}));

// Fused-sweep equivalence: masks built by the fused top-down/bottom-up
// propagation (bp_fused = true, the default) are bit-identical to the
// two-sweep replay reference on every graph family, sequentially and in
// parallel. The fused path must be a pure optimization.
TEST_P(BitParallelDefinition, FusedSweepMatchesTwoSweepReplay) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  const auto landmarks =
      SelectLandmarks(g, p.k, LandmarkStrategy::kHighestDegree, p.seed);
  LabelingBuildOptions replay_options;
  replay_options.bp_fused = false;
  const auto replay = BuildLabelingScheme(g, landmarks, replay_options);
  for (const size_t threads : {size_t{1}, size_t{0}}) {
    LabelingBuildOptions fused_options;
    fused_options.num_threads = threads;
    const auto fused = BuildLabelingScheme(g, landmarks, fused_options);
    ASSERT_TRUE(fused.labeling.has_bp_masks());
    for (LandmarkIndex i = 0; i < fused.labeling.num_landmarks(); ++i) {
      ASSERT_EQ(fused.labeling.BpSelected(i), replay.labeling.BpSelected(i));
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (LandmarkIndex i = 0; i < fused.labeling.num_landmarks(); ++i) {
        ASSERT_EQ(fused.labeling.GetBpMask(v, i),
                  replay.labeling.GetBpMask(v, i))
            << "threads=" << threads << " v=" << v << " landmark=" << i;
      }
      for (LandmarkIndex i = 0; i < fused.labeling.num_landmarks(); ++i) {
        ASSERT_EQ(fused.labeling.Get(v, i), replay.labeling.Get(v, i));
      }
    }
  }
}

// Parallel construction produces the identical masks (Lemma 5.2 analogue:
// the masks are a pure function of (G, R)).
TEST(BitParallelTest, ParallelMatchesSequential) {
  Graph g = BarabasiAlbert(400, 3, 11);
  const auto landmarks =
      SelectLandmarks(g, 12, LandmarkStrategy::kHighestDegree, 11);
  LabelingBuildOptions par;
  par.num_threads = 0;
  const auto seq = BuildLabelingScheme(g, landmarks);
  const auto p = BuildLabelingScheme(g, landmarks, par);
  for (LandmarkIndex i = 0; i < seq.labeling.num_landmarks(); ++i) {
    ASSERT_EQ(seq.labeling.BpSelected(i), p.labeling.BpSelected(i));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < seq.labeling.num_landmarks(); ++i) {
      ASSERT_EQ(seq.labeling.GetBpMask(v, i), p.labeling.GetBpMask(v, i));
    }
  }
}

class BitParallelQuery : public ::testing::TestWithParam<BpParam> {};

// The label bounds never disagree with BfsDistances: lower <= d <= upper
// for every pair sharing a landmark, with or without the mask refinement —
// for EVERY compiled scan kernel (scalar, AVX2), which must also agree
// with each other bit for bit.
TEST_P(BitParallelQuery, LabelBoundsNeverDisagreeWithBfs) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  QbsIndex index = QbsIndex::Build(g, options);
  const PathLabeling& l = index.labeling();

  std::vector<VertexId> us;
  std::vector<VertexId> vs;
  std::vector<uint32_t> dists;
  for (const auto& [u, v] : SampleQueryPairs(g, 120, p.seed)) {
    if (u == v) continue;
    us.push_back(u);
    vs.push_back(v);
    dists.push_back(BfsDistances(g, u)[v]);
  }

  const ScanKernel saved = ActiveScanKernel();
  std::vector<LabelBound> first_kernel_bounds;
  for (const ScanKernel kernel : SupportedScanKernels()) {
    SetActiveScanKernel(kernel);
    const char* kname = ScanOpsFor(kernel).name;
    for (size_t i = 0; i < us.size(); ++i) {
      const VertexId u = us[i];
      const VertexId v = vs[i];
      const uint32_t d = dists[i];
      const LabelBound bound = ComputeLabelBound(l, index.meta_graph(), u, v);
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
  SetActiveScanKernel(saved);
}

// Property test for the mask-lifted lower bound: for every pair reachable
// from a spread of sources, ComputeLabelBound().lower never exceeds the
// true BFS distance (a lifted witness must pin real per-neighbour
// distances, never invent slack).
TEST_P(BitParallelQuery, LowerBoundNeverExceedsBfsDistances) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  QbsIndex index = QbsIndex::Build(g, options);
  const PathLabeling& l = index.labeling();

  std::vector<VertexId> sources = index.landmarks();
  for (VertexId s = 0; s < g.NumVertices();
       s += g.NumVertices() / 8 + 1) {
    sources.push_back(s);
  }
  const ScanKernel saved = ActiveScanKernel();
  for (const ScanKernel kernel : SupportedScanKernels()) {
    SetActiveScanKernel(kernel);
    const char* kname = ScanOpsFor(kernel).name;
    size_t lifted = 0;
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
          // Disconnected pairs share no landmark: nothing to bound.
          ASSERT_EQ(bound.lower, 0u) << kname;
          ASSERT_EQ(bound.upper, kUnreachable) << kname;
        }
        if (bound.lower > 0 && bound.lower == dist[t]) ++lifted;
      }
    }
    EXPECT_GT(lifted, 0u) << kname;  // the bound is tight somewhere
  }
  SetActiveScanKernel(saved);
}

// d <= 2 queries never scan a reverse or recover edge: label-certified
// pairs short-circuit entirely (zero search scans too), and uncertified
// close pairs emit their SPG directly after the search fixes the distance.
// d >= 3 pairs must never short-circuit.
TEST_P(BitParallelQuery, ShortDistancesAnsweredFromLabels) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  QbsIndex index = QbsIndex::Build(g, options);

  // Collect pairs at each true distance from a handful of sources,
  // including landmark endpoints (resolved via the other side's label row).
  std::vector<VertexId> sources = index.landmarks();
  for (VertexId s = 0; s < g.NumVertices() && sources.size() < p.k + 6;
       s += g.NumVertices() / 6 + 1) {
    sources.push_back(s);
  }
  size_t checked_close = 0;
  size_t checked_far = 0;
  size_t certified = 0;
  for (const VertexId s : sources) {
    const auto dist = BfsDistances(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const bool close = dist[t] <= 2;
      if (close && checked_close > 600) continue;
      if (!close && checked_far > 200) continue;
      const QueryResponse response = index.Query({s, t});
      const SearchStats& stats = response.stats;
      ASSERT_EQ(response.spg, SpgByDoubleBfs(g, s, t))
          << "s=" << s << " t=" << t;
      if (close) {
        ++checked_close;
        // Never any reverse or recover work for a d <= 2 pair.
        EXPECT_EQ(stats.edges_scanned_reverse, 0u) << "s=" << s << " t=" << t;
        EXPECT_EQ(stats.edges_scanned_recover, 0u) << "s=" << s << " t=" << t;
        EXPECT_EQ(stats.delta_cache_hits, 0u);
        if (s != t && stats.d_label_upper <= 2) {
          // Certified: answered from labels alone, zero search scans.
          ++certified;
          EXPECT_EQ(stats.label_short_circuits, 1u)
              << "s=" << s << " t=" << t << " d=" << dist[t];
          EXPECT_EQ(stats.edges_scanned_search, 0u)
              << "s=" << s << " t=" << t;
        }
      } else {
        ++checked_far;
        EXPECT_EQ(stats.label_short_circuits, 0u)
            << "s=" << s << " t=" << t << " d=" << dist[t];
      }
    }
  }
  EXPECT_GT(checked_close, 0u);
  EXPECT_GT(checked_far, 0u);
  // The sweep must actually exercise the certified fast path (sources
  // include the landmarks, whose neighbourhoods always certify).
  EXPECT_GT(certified, 0u);
}

// Masks off reproduces the pre-mask behavior bit for bit: identical SPGs,
// no short circuits, no label bound.
TEST_P(BitParallelQuery, DisabledMasksMatchEnabled) {
  const auto& p = GetParam();
  Graph g = FamilyGraph(p.family, p.seed);
  QbsOptions on;
  on.num_landmarks = p.k;
  QbsOptions off = on;
  off.bit_parallel = false;
  QbsIndex index_on = QbsIndex::Build(g, on);
  QbsIndex index_off = QbsIndex::Build(g, off);
  EXPECT_FALSE(index_off.labeling().has_bp_masks());
  EXPECT_EQ(index_off.BpMaskSizeBytes(), 0u);
  EXPECT_GT(index_on.BpMaskSizeBytes(), 0u);
  for (const auto& [u, v] : SampleQueryPairs(g, 80, p.seed + 1)) {
    const QueryResponse off_response = index_off.Query({u, v});
    ASSERT_EQ(index_on.Query({u, v}).spg, off_response.spg)
        << "u=" << u << " v=" << v;
    EXPECT_EQ(off_response.stats.label_short_circuits, 0u);
    EXPECT_EQ(off_response.stats.d_label_upper, kUnreachable);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitParallelQuery,
                         ::testing::Values(BpParam{0, 21, 8},
                                           BpParam{1, 22, 10},
                                           BpParam{2, 23, 6},
                                           BpParam{3, 24, 5},
                                           BpParam{0, 25, 20}));

// QueryBatch runs the same fast path through the pooled searchers.
TEST(BitParallelTest, QueryBatchAgreesWithSerialQueries) {
  Graph g = BarabasiAlbert(500, 4, 31);
  QbsOptions options;
  options.num_landmarks = 16;
  QbsIndex index = QbsIndex::Build(g, options);
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : SampleQueryPairs(g, 200, 31)) {
    requests.emplace_back(u, v);
  }
  // Mix in known-close pairs so the batch exercises the short circuit.
  for (VertexId u = 0; u < 20; ++u) {
    for (VertexId w : g.Neighbors(u)) {
      requests.emplace_back(u, w);
      break;
    }
  }
  QbsIndex::BatchOptions four;
  four.num_threads = 4;
  const auto batch = index.QueryBatch(requests, four);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(batch[i].spg, index.Query({requests[i].u, requests[i].v}).spg)
        << "pair " << i;
  }
}

// Landmark endpoints: the fast path serves (landmark, x) pairs at d <= 2
// and landmark-landmark pairs via the meta-graph distance.
TEST(BitParallelTest, LandmarkEndpointsShortCircuit) {
  Graph g = testing::Figure4Graph();
  QbsIndex index =
      QbsIndex::BuildWithLandmarks(g, testing::Figure4Landmarks(), {});
  size_t certified = 0;
  for (const VertexId r : index.landmarks()) {
    const auto dist = BfsDistances(g, r);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const QueryResponse response = index.Query({r, t});
      const SearchStats& stats = response.stats;
      ASSERT_EQ(response.spg, SpgByDoubleBfs(g, r, t))
          << "r=" << r << " t=" << t;
      if (r != t && dist[t] <= 2) {
        EXPECT_EQ(stats.edges_scanned_recover, 0u) << "r=" << r << " t=" << t;
        EXPECT_EQ(stats.edges_scanned_reverse, 0u) << "r=" << r << " t=" << t;
        if (stats.d_label_upper <= 2) {
          ++certified;
          EXPECT_EQ(stats.label_short_circuits, 1u)
              << "r=" << r << " t=" << t;
          EXPECT_EQ(stats.edges_scanned_search, 0u);
        }
      }
    }
  }
  EXPECT_GT(certified, 0u);
}

// Mask-guided pruning: identical answers with strictly fewer search edge
// scans on the queries where all shortest paths cross landmarks (the
// widest, least fruitful frontiers — exactly where a certified
// depth + lower bound > budget cuts whole subtrees). A small-world ring
// keeps distances long-range, which is the regime the pruning targets
// (short-budget searches skip the per-vertex check entirely). Two
// searchers over one index: the default one prunes, the other is the
// unpruned reference traversal.
TEST(BitParallelTest, MaskPruneReducesAllThroughLandmarkScans) {
  // A wide small-world ring: distances stay long-range (budgets clear
  // kMaskPruneMinBudget) and degrees clear the per-vertex check gate.
  Graph g = WattsStrogatz(1200, 20, 0.01, 77);
  QbsOptions options;
  options.num_landmarks = 16;
  const QbsIndex index = QbsIndex::Build(g, options);
  const Graph gminus = MakeSparsifiedGraph(g, index.labeling());
  GuidedSearcher pruned(g, gminus, index.labeling(), index.meta_graph(),
                        index.delta_cache());
  GuidedSearcher unpruned(g, gminus, index.labeling(), index.meta_graph(),
                          index.delta_cache());
  unpruned.set_mask_prune(false);

  uint64_t pruned_scans = 0;
  uint64_t unpruned_scans = 0;
  uint64_t prunes = 0;
  size_t all_through = 0;
  for (const auto& [u, v] : SampleQueryPairs(g, 400, 77)) {
    SearchStats sp;
    SearchStats su;
    const auto a = pruned.Query(u, v, &sp);
    const auto b = unpruned.Query(u, v, &su);
    ASSERT_EQ(a, b) << "u=" << u << " v=" << v;
    EXPECT_EQ(su.lb_prunes, 0u);
    prunes += sp.lb_prunes;
    if (su.coverage == PairCoverage::kAllThroughLandmarks &&
        su.label_short_circuits == 0) {
      ++all_through;
      pruned_scans += sp.edges_scanned_search;
      unpruned_scans += su.edges_scanned_search;
    }
  }
  ASSERT_GT(all_through, 0u);
  EXPECT_GT(prunes, 0u);
  EXPECT_LE(pruned_scans, unpruned_scans);
  EXPECT_LT(pruned_scans, unpruned_scans)
      << "pruning never fired on " << all_through
      << " kAllThroughLandmarks searches";
  std::printf("all-through searches: %zu, prunes: %llu, "
              "edges_scanned_search %llu -> %llu (%.2fx)\n",
              all_through, static_cast<unsigned long long>(prunes),
              static_cast<unsigned long long>(unpruned_scans),
              static_cast<unsigned long long>(pruned_scans),
              unpruned_scans > 0 ? static_cast<double>(unpruned_scans) /
                                       static_cast<double>(std::max<uint64_t>(
                                           pruned_scans, 1))
                                 : 0.0);
}

// A mask-less index (bit_parallel = false) runs with sound bounds and
// oracle-exact queries, never short-circuiting on labels. And
// force-enabling empty masks on a mask-less scheme must degrade to "no
// witnesses": bounds identical to the mask-less ones, never tighter.
TEST(BitParallelTest, MasklessSchemeQueriesAndBoundsStaySound) {
  Graph g = testing::Figure4Graph();
  QbsOptions options;
  options.bit_parallel = false;
  const QbsIndex index =
      QbsIndex::BuildWithLandmarks(g, testing::Figure4Landmarks(), options);
  EXPECT_FALSE(index.labeling().has_bp_masks());
  EXPECT_EQ(index.BpMaskSizeBytes(), 0u);

  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const auto dist = BfsDistances(g, u);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const QueryResponse response = index.Query({u, v});
      ASSERT_EQ(response.spg, SpgByDoubleBfs(g, u, v))
          << "u=" << u << " v=" << v;
      EXPECT_EQ(response.stats.label_short_circuits, 0u);
      if (u != v && dist[v] != kUnreachable) {
        EXPECT_GE(index.DistanceUpperBound(u, v), dist[v]);
        const LabelBound bound =
            ComputeLabelBound(index.labeling(), index.meta_graph(), u, v);
        EXPECT_LE(bound.lower, dist[v]);
      }
    }
  }

  // Adversarial variant: a scheme whose mask matrix exists but is all
  // zeros (what a loader bug would produce). Upper refinement and lower
  // lift both require set bits on both sides, so every bound must equal
  // the mask-less one.
  LabelingBuildOptions maskless;
  maskless.bit_parallel = false;
  const LabelingScheme scheme =
      BuildLabelingScheme(g, testing::Figure4Landmarks(), maskless);
  LabelingScheme empty_masks =
      BuildLabelingScheme(g, testing::Figure4Landmarks(), maskless);
  empty_masks.labeling.EnableBpMasks();
  ASSERT_TRUE(empty_masks.labeling.has_bp_masks());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (u == v) continue;
      const LabelBound plain =
          ComputeLabelBound(scheme.labeling, scheme.meta, u, v);
      const LabelBound with_empty =
          ComputeLabelBound(empty_masks.labeling, empty_masks.meta, u, v);
      EXPECT_EQ(with_empty.lower, plain.lower) << "u=" << u << " v=" << v;
      EXPECT_EQ(with_empty.upper, plain.upper) << "u=" << u << " v=" << v;
    }
  }
}

// Save/Load round-trips the masks and the selected sets; a loaded index
// short-circuits exactly like the one that was saved.
TEST(BitParallelTest, SerializationRoundTripPreservesMasks) {
  const std::string path = ::testing::TempDir() + "/bp_index.qbsidx";
  Graph g = BarabasiAlbert(300, 3, 41);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path));
  auto loaded = QbsIndex::LoadFromFile(g, path, options);
  ASSERT_TRUE(loaded.has_value());
  const PathLabeling& a = built.labeling();
  const PathLabeling& b = loaded->labeling();
  ASSERT_TRUE(b.has_bp_masks());
  for (LandmarkIndex i = 0; i < a.num_landmarks(); ++i) {
    ASSERT_EQ(a.BpSelected(i), b.BpSelected(i));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < a.num_landmarks(); ++i) {
      ASSERT_EQ(a.GetBpMask(v, i), b.GetBpMask(v, i));
    }
  }
  for (const auto& [u, v] : SampleQueryPairs(g, 60, 41)) {
    const QueryResponse a = built.Query({u, v});
    const QueryResponse b = loaded->Query({u, v});
    ASSERT_EQ(a.spg, b.spg);
    EXPECT_EQ(a.stats.label_short_circuits, b.stats.label_short_circuits);
    EXPECT_EQ(a.stats.d_label_upper, b.stats.d_label_upper);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qbs
