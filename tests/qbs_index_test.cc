#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "core/qbs_index.h"
#include "core/sketch.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

TEST(QbsIndexTest, BuildAndQuerySmoke) {
  Graph g = BarabasiAlbert(500, 3, 1);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_EQ(index.landmarks().size(), 10u);
  EXPECT_GT(index.LabelingSizeBytes(), 0u);
  EXPECT_GT(index.DeltaSizeBytes(), 0u);  // every index carries Δ
  EXPECT_EQ(index.delta_cache().NumSegments(),
            index.meta_graph().Edges().size());
  EXPECT_EQ(index.Query({50, 400}).spg, SpgByDoubleBfs(g, 50, 400));
}

TEST(QbsIndexTest, MoveSemanticsKeepSearcherValid) {
  Graph g = BarabasiAlbert(200, 2, 2);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex index = QbsIndex::Build(g, options);
  QbsIndex moved = std::move(index);
  EXPECT_EQ(moved.Query({10, 100}).spg, SpgByDoubleBfs(g, 10, 100));
}

// Query() is const and leases a searcher per call, so many threads may
// query one shared index at once; every answer must still be exact.
TEST(QbsIndexTest, ConcurrentConstQueriesMatchOracle) {
  Graph g = BarabasiAlbert(300, 3, 6);
  QbsOptions options;
  options.num_landmarks = 8;
  const QbsIndex built = QbsIndex::Build(g, options);
  const QbsIndex& index = built;
  const auto pairs = SampleQueryPairs(g, 160, 6);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<ShortestPathGraph>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks every pair from a different offset, so the
      // threads overlap on pairs without running in lockstep.
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto& [u, v] = pairs[(i + t * 37) % pairs.size()];
        got[t].push_back(index.Query({u, v}).spg);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto& [u, v] = pairs[(i + t * 37) % pairs.size()];
      ASSERT_EQ(got[t][i], SpgByDoubleBfs(g, u, v))
          << "thread " << t << " u=" << u << " v=" << v;
    }
  }
  EXPECT_LE(index.BatchSearcherPoolSize(), kThreads);
}

// Construction allocates no searcher: the pool stays empty until the first
// query leases one, which then stays pooled for reuse.
TEST(QbsIndexTest, SearcherPoolGrowsOnFirstQuery) {
  Graph g = BarabasiAlbert(200, 2, 7);
  QbsOptions options;
  options.num_landmarks = 6;
  const QbsIndex built = QbsIndex::Build(g, options);
  EXPECT_EQ(built.BatchSearcherPoolSize(), 0u);
  built.Query({1, 150});
  EXPECT_EQ(built.BatchSearcherPoolSize(), 1u);
  built.Query({2, 160});
  EXPECT_EQ(built.BatchSearcherPoolSize(), 1u);

  const std::string path = ::testing::TempDir() + "/pool_index.qbsidx";
  ASSERT_TRUE(built.Save(path));
  const auto loaded = QbsIndex::LoadFromFile(g, path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->BatchSearcherPoolSize(), 0u);
  EXPECT_EQ(loaded->Query({1, 150}).spg, SpgByDoubleBfs(g, 1, 150));
  EXPECT_EQ(loaded->BatchSearcherPoolSize(), 1u);
}

TEST(QbsIndexTest, DistanceUpperBoundIsUpperBound) {
  Graph g = BarabasiAlbert(300, 2, 3);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto pairs = SampleQueryPairs(g, 100, 17);
  BiBfs bibfs(g);
  for (const auto& [u, v] : pairs) {
    const uint32_t bound =
        ComputeSketch(index.labeling(), index.meta_graph(), u, v).d_top;
    EXPECT_GE(bound, bibfs.Distance(u, v));
  }
}

TEST(QbsIndexTest, LandmarksClampedToGraph) {
  Graph g = PathGraph(5);
  QbsOptions options;
  options.num_landmarks = 50;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_EQ(index.landmarks().size(), 5u);
  // Every vertex is a landmark: queries are pure recover searches.
  EXPECT_EQ(index.Query({0, 4}).spg, SpgByDoubleBfs(g, 0, 4));
}

TEST(QbsIndexTest, ZeroLandmarksDegeneratesToBiBfs) {
  Graph g = BarabasiAlbert(200, 2, 4);
  QbsOptions options;
  options.num_landmarks = 0;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_EQ(index.Query({3, 150}).spg, SpgByDoubleBfs(g, 3, 150));
  EXPECT_EQ(ComputeSketch(index.labeling(), index.meta_graph(), 3, 150).d_top,
            kUnreachable);
}

TEST(QbsIndexTest, TimingsPopulated) {
  Graph g = BarabasiAlbert(300, 3, 5);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_GT(index.timings().labeling_seconds, 0.0);
  EXPECT_GE(index.timings().delta_seconds, 0.0);
  EXPECT_GT(index.DeltaSizeBytes(), 0u);
}

TEST(QbsIndexTest, BuildWithExplicitLandmarks) {
  Graph g = testing::Figure4Graph();
  QbsIndex index =
      QbsIndex::BuildWithLandmarks(g, testing::Figure4Landmarks());
  EXPECT_EQ(index.landmarks(), testing::Figure4Landmarks());
  EXPECT_EQ(index.Query({5, 10}).spg, SpgByDoubleBfs(g, 5, 10));
}

// Pair coverage classification agrees with a brute-force landmark check.
TEST(QbsIndexTest, CoverageClassificationMatchesBruteForce) {
  Graph g = BarabasiAlbert(250, 2, 21);
  QbsOptions options;
  options.num_landmarks = 6;
  QbsIndex index = QbsIndex::Build(g, options);
  std::vector<bool> is_landmark(g.NumVertices(), false);
  for (VertexId r : index.landmarks()) is_landmark[r] = true;

  const auto pairs = SampleQueryPairs(g, 80, 22);
  for (const auto& [u, v] : pairs) {
    if (is_landmark[u] || is_landmark[v]) continue;
    const QueryResponse response = index.Query({u, v});
    const ShortestPathGraph& spg = response.spg;
    const SearchStats& stats = response.stats;
    ASSERT_TRUE(spg.Connected());
    // Brute force: does some / every shortest path pass a landmark?
    const auto du = BfsDistances(g, u);
    const auto dv = BfsDistances(g, v);
    bool some = false;
    for (VertexId r : index.landmarks()) {
      if (du[r] + dv[r] == spg.distance) some = true;
    }
    // "all" iff removing landmarks stretches the distance.
    std::vector<bool> removed(g.NumVertices(), false);
    for (VertexId r : index.landmarks()) removed[r] = true;
    const uint32_t masked = testing::MaskedDistance(g, u, v, removed);
    const bool all = masked != spg.distance;  // includes kUnreachable
    switch (stats.coverage) {
      case PairCoverage::kAllThroughLandmarks:
        EXPECT_TRUE(some && all);
        break;
      case PairCoverage::kSomeThroughLandmarks:
        EXPECT_TRUE(some && !all);
        break;
      case PairCoverage::kNoneThroughLandmarks:
        EXPECT_FALSE(some);
        break;
      case PairCoverage::kDisconnected:
        FAIL();
    }
  }
}

// --- Close pairs: a pair at d <= 2 takes the same path as every other
// pair (sketch, guided search, Eq. 5). ---

// The coverage class (Fig. 8) that a d <= 2 pair's witnesses give. A
// landmark endpoint puts every shortest path through a landmark. Otherwise
// an edge (d = 1) avoids them, and at d = 2 the landmarks among the common
// neighbours decide: all of them, only some, or none.
PairCoverage WitnessCoverage(const Graph& g, const PathLabeling& l,
                             VertexId u, VertexId v) {
  if (l.IsLandmark(u) || l.IsLandmark(v)) {
    return PairCoverage::kAllThroughLandmarks;
  }
  size_t witnesses = 0;
  size_t landmark_witnesses = 0;
  if (!g.HasEdge(u, v)) {
    for (const VertexId w : g.Neighbors(u)) {
      if (!g.HasEdge(w, v)) continue;
      ++witnesses;
      landmark_witnesses += l.IsLandmark(w) ? 1 : 0;
    }
  }
  if (landmark_witnesses == 0) return PairCoverage::kNoneThroughLandmarks;
  return landmark_witnesses == witnesses ? PairCoverage::kAllThroughLandmarks
                                         : PairCoverage::kSomeThroughLandmarks;
}

// Checks one pair at distance 1 or 2: the SPG is the oracle's, the reverse
// walk never outscans the search, and the coverage class is the
// witnesses'. At d = 2, a distance-only request answers {d = 2, no edges},
// and a budget-1 request answers budget-exceeded with d = 2, or
// budget-pruned when the label lower bound already exceeds 1.
void ExpectCloseAnswer(const QbsIndex& index, const Graph& g, VertexId u,
                       VertexId v) {
  const ShortestPathGraph oracle = SpgByDoubleBfs(g, u, v);
  ASSERT_GE(oracle.distance, 1u) << "u=" << u << " v=" << v;
  ASSERT_LE(oracle.distance, 2u) << "u=" << u << " v=" << v;
  const QueryResponse response = index.Query({u, v});
  ASSERT_EQ(response.spg, oracle) << "u=" << u << " v=" << v;
  EXPECT_LE(response.stats.edges_scanned_reverse,
            response.stats.edges_scanned_search)
      << "u=" << u << " v=" << v;
  EXPECT_EQ(response.stats.coverage,
            WitnessCoverage(g, index.labeling(), u, v))
      << "u=" << u << " v=" << v;
  if (oracle.distance != 2) return;

  QueryResponse expected;
  expected.spg.u = u;
  expected.spg.v = v;
  expected.spg.distance = 2;
  EXPECT_TRUE(
      SameAnswer(index.Query({u, v, QueryMode::kDistance}), expected))
      << "u=" << u << " v=" << v;
  if (ComputeLabelBound(index.labeling(), index.meta_graph(), u, v).lower >
      1) {
    expected.spg.distance = kUnreachable;
    expected.flags = kResponseFlagBudgetPruned;
  } else {
    expected.flags = kResponseFlagBudgetExceeded;
  }
  EXPECT_TRUE(SameAnswer(index.Query({u, v, QueryMode::kSpg, 1}), expected))
      << "u=" << u << " v=" << v;
}

struct ClosePairParam {
  int family;
  uint64_t seed;
  uint32_t k;
};

class ClosePairs : public ::testing::TestWithParam<ClosePairParam> {};

// Sources are the landmarks plus a spread of vertices. Their close targets
// (up to ~600 pairs, adjacent and landmark pairs among them) get every
// close-pair check, and up to ~200 far targets the oracle check. Then
// pairs of non-landmark neighbours of one landmark: up to 4 neighbours per
// landmark, every pair of them at d <= 2.
TEST_P(ClosePairs, AnsweredByTheGuidedSearch) {
  const auto& p = GetParam();
  Graph g = testing::SmallFamilyGraph(p.family, p.seed);
  QbsOptions options;
  options.num_landmarks = p.k;
  const QbsIndex index = QbsIndex::Build(g, options);
  const PathLabeling& l = index.labeling();

  std::vector<VertexId> sources = index.landmarks();
  for (VertexId s = 0; s < g.NumVertices(); s += g.NumVertices() / 6 + 1) {
    sources.push_back(s);
  }
  size_t checked_close = 0;
  size_t checked_far = 0;
  size_t at_two = 0;
  for (const VertexId s : sources) {
    const auto dist = BfsDistances(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const bool close = dist[t] <= 2;
      if (close && checked_close > 600) continue;
      if (!close && checked_far > 200) continue;
      ++(close ? checked_close : checked_far);
      if (close && s != t) {
        ASSERT_NO_FATAL_FAILURE(ExpectCloseAnswer(index, g, s, t));
        at_two += dist[t] == 2 ? 1 : 0;
      } else {
        ASSERT_EQ(index.Query({s, t}).spg, SpgByDoubleBfs(g, s, t))
            << "s=" << s << " t=" << t;
      }
    }
  }
  EXPECT_GT(checked_close, 0u);
  EXPECT_GT(checked_far, 0u);
  EXPECT_GT(at_two, 0u);

  size_t neighbour_pairs = 0;
  for (const VertexId r : index.landmarks()) {
    std::vector<VertexId> nbrs;
    for (const VertexId w : g.Neighbors(r)) {
      if (!l.IsLandmark(w) && nbrs.size() < 4) nbrs.push_back(w);
    }
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        ASSERT_NO_FATAL_FAILURE(ExpectCloseAnswer(index, g, nbrs[a], nbrs[b]))
            << "r=" << r;
        ++neighbour_pairs;
      }
    }
  }
  EXPECT_GT(neighbour_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosePairs,
                         ::testing::Values(ClosePairParam{0, 21, 8},
                                           ClosePairParam{1, 22, 10},
                                           ClosePairParam{2, 23, 6},
                                           ClosePairParam{3, 24, 5},
                                           ClosePairParam{0, 25, 20}));

// Landmark endpoints on the Figure 4 graph: every (landmark, x) pair at
// d <= 2 has all its shortest paths through a landmark.
TEST(ClosePairsTest, LandmarkEndpoints) {
  Graph g = testing::Figure4Graph();
  const QbsIndex index =
      QbsIndex::BuildWithLandmarks(g, testing::Figure4Landmarks(), {});
  size_t checked = 0;
  for (const VertexId r : index.landmarks()) {
    const auto dist = BfsDistances(g, r);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      if (r == t || dist[t] > 2) {
        ASSERT_EQ(index.Query({r, t}).spg, SpgByDoubleBfs(g, r, t))
            << "r=" << r << " t=" << t;
        continue;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCloseAnswer(index, g, r, t));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

// QueryBatch answers close pairs through the pooled searchers too.
TEST(ClosePairsTest, QueryBatchAgreesWithSerialQueries) {
  Graph g = BarabasiAlbert(500, 4, 31);
  QbsOptions options;
  options.num_landmarks = 16;
  const QbsIndex index = QbsIndex::Build(g, options);
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : SampleQueryPairs(g, 200, 31)) {
    requests.emplace_back(u, v);
  }
  // Mix in adjacent pairs and landmark-neighbour pairs so the batch
  // holds close pairs.
  for (VertexId u = 0; u < 20; ++u) {
    requests.emplace_back(u, g.Neighbors(u).front());
  }
  for (const VertexId r : index.landmarks()) {
    const auto nr = g.Neighbors(r);
    requests.emplace_back(nr.front(), nr.back());
  }
  QbsIndex::BatchOptions four;
  four.num_threads = 4;
  const auto batch = index.QueryBatch(requests, four);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(batch[i].spg, index.Query({requests[i].u, requests[i].v}).spg)
        << "pair " << i;
    ASSERT_EQ(batch[i].spg, SpgByDoubleBfs(g, requests[i].u, requests[i].v))
        << "pair " << i;
  }
}

}  // namespace
}  // namespace qbs
