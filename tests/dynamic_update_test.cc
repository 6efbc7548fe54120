// The dynamic-index gauntlet: random edit scripts against
// QbsIndex::ApplyUpdates must leave the index bit-identical to a
// from-scratch build on the updated graph — labels, bit-parallel masks,
// meta-graph, Δ segments, and answers (SameAnswer on sampled pairs,
// including d <= 2 pairs that exercise the mask fast path).
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), which is
// what makes bit-identity a legitimate oracle: same updated graph, same
// landmarks, same bits.
//
// Seeds come from QBS_DYNAMIC_SEEDS (comma-separated) when set — the CI
// dynamic-gauntlet job passes 16 fresh seeds per run and logs them — and
// default to 1..16 locally. Every seed is printed, so any failure line is
// directly replayable with QBS_DYNAMIC_SEEDS=<seed>.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/graph_delta.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

std::vector<uint64_t> GauntletSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("QBS_DYNAMIC_SEEDS")) {
    const std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t end = s.find(',', pos);
      if (end == std::string::npos) end = s.size();
      const std::string tok = s.substr(pos, end - pos);
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      pos = end + 1;
    }
  }
  if (seeds.empty()) {
    for (uint64_t i = 1; i <= 16; ++i) seeds.push_back(i);
  }
  return seeds;
}

Graph MakeFamilyGraph(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return BarabasiAlbert(220, 3, seed);
    case 1:
      return WattsStrogatz(180, 4, 0.1, seed);
    default:
      // Raw G(n, m), possibly disconnected — exercises the unreachable
      // paths of detection and repair.
      return ErdosRenyi(200, 380, seed);
  }
}

// A script mixing fresh inserts, deletions of existing edges, likely
// no-ops, and the occasional invalid entry.
GraphDelta RandomScript(const Graph& g, std::mt19937_64& rng, size_t ops) {
  const std::vector<Edge> edges = g.EdgeList();
  std::uniform_int_distribution<VertexId> vtx(0, g.NumVertices() - 1);
  GraphDelta delta;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t roll = rng() % 100;
    if (roll < 45) {
      delta.Insert(vtx(rng), vtx(rng));  // may be a self-loop / duplicate
    } else if (roll < 85 && !edges.empty()) {
      const Edge& e = edges[rng() % edges.size()];
      delta.Delete(e.u, e.v);
    } else if (roll < 95) {
      delta.Delete(vtx(rng), vtx(rng));  // probably absent: a no-op
    } else {
      delta.Insert(vtx(rng), static_cast<VertexId>(g.NumVertices() + 7));
    }
  }
  return delta;
}

void AssertSameScheme(const Graph& g, const QbsIndex& updated,
                      const QbsIndex& fresh) {
  const PathLabeling& a = updated.labeling();
  const PathLabeling& b = fresh.labeling();
  ASSERT_EQ(a.landmarks(), b.landmarks());
  ASSERT_EQ(a.has_bp_masks(), b.has_bp_masks());
  const uint32_t k = a.num_landmarks();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(a.Get(v, i), b.Get(v, i))
          << "label mismatch at v=" << v << " landmark=" << i;
      if (a.has_bp_masks()) {
        ASSERT_EQ(a.GetBpMask(v, i), b.GetBpMask(v, i))
            << "bp mask mismatch at v=" << v << " landmark=" << i;
      }
    }
  }
  ASSERT_EQ(updated.meta_graph().Edges(), fresh.meta_graph().Edges());
  // Δ sits on every recover path, so its refresh must be exact too.
  for (const MetaEdge& e : fresh.meta_graph().Edges()) {
    const std::vector<Edge>* got = updated.delta_cache().Lookup(e.a, e.b);
    const std::vector<Edge>* want = fresh.delta_cache().Lookup(e.a, e.b);
    ASSERT_NE(got, nullptr) << "no Δ segment for (" << e.a << ", " << e.b
                            << ")";
    ASSERT_NE(want, nullptr);
    ASSERT_EQ(*got, *want) << "Δ segment mismatch for (" << e.a << ", "
                           << e.b << ")";
  }
  ASSERT_EQ(updated.DeltaSizeBytes(), fresh.DeltaSizeBytes());
}

// Sampled pairs + adjacent and two-hop pairs (the d <= 2 bit-parallel
// fast path must stay bit-identical too).
std::vector<QueryPair> ProbePairs(const Graph& g, std::mt19937_64& rng) {
  std::vector<QueryPair> pairs = SampleQueryPairs(g, 25, rng());
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<VertexId>(rng() % g.NumVertices());
    const auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    const VertexId w = nu[rng() % nu.size()];
    pairs.push_back({u, w});  // d == 1
    const auto nw = g.Neighbors(w);
    if (!nw.empty()) pairs.push_back({u, nw[rng() % nw.size()]});  // d <= 2
  }
  return pairs;
}

void AssertSameAnswers(const Graph& g, const QbsIndex& updated,
                       const QbsIndex& fresh, std::mt19937_64& rng) {
  for (const auto& [u, v] : ProbePairs(g, rng)) {
    const QueryResponse got = updated.Query({u, v});
    const QueryResponse want = fresh.Query({u, v});
    ASSERT_TRUE(SameAnswer(got, want)) << "answer diverged for (" << u << ", "
                                       << v << ")";
  }
}

TEST(DynamicUpdateTest, GauntletMatchesFreshBuild) {
  for (const uint64_t seed : GauntletSeeds()) {
    std::mt19937_64 rng(seed);
    Graph g = MakeFamilyGraph(seed);
    QbsOptions options;
    options.num_landmarks = 8;
    options.num_threads = 2;
    options.bit_parallel = seed % 2 == 0;
    std::printf("[gauntlet] seed=%" PRIu64 " family=%" PRIu64 " bp=%d\n",
                seed, seed % 3, options.bit_parallel ? 1 : 0);
    QbsIndex index = QbsIndex::Build(g, options);
    index.EnableUpdates(&g, 2);
    const std::vector<VertexId> landmarks = index.landmarks();

    for (int batch = 0; batch < 3; ++batch) {
      const GraphDelta delta = RandomScript(g, rng, 10);
      index.ApplyUpdates(delta);
      QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, landmarks, options);
      AssertSameScheme(g, index, fresh);
      AssertSameAnswers(g, index, fresh, rng);
      if (::testing::Test::HasFatalFailure()) {
        return;  // the printed seed line identifies the failing script
      }
    }
  }
}

TEST(DynamicUpdateTest, UpdatableAfterLoadFromFile) {
  Graph g = BarabasiAlbert(150, 3, 21);
  QbsOptions options;
  options.num_landmarks = 6;
  const std::string path = ::testing::TempDir() + "/dynamic_update_idx.qbs";
  {
    const QbsIndex built = QbsIndex::Build(g, options);
    ASSERT_TRUE(built.Save(path));
  }
  auto loaded = QbsIndex::LoadFromFile(g, path, options);
  ASSERT_TRUE(loaded.has_value());
  // EnableUpdates recaptures per-column depths with fresh BFS sweeps, so a
  // deserialized index is just as updatable as a built one.
  loaded->EnableUpdates(&g);
  GraphDelta delta;
  delta.Insert(0, 149);
  delta.Delete(g.EdgeList().front().u, g.EdgeList().front().v);
  loaded->ApplyUpdates(delta);
  QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, loaded->landmarks(), options);
  AssertSameScheme(g, *loaded, fresh);
  std::remove(path.c_str());
}

TEST(DynamicUpdateTest, InsertShortensDistanceImmediately) {
  Graph g = PathGraph(8);  // 0-1-...-7
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  GraphDelta delta;
  delta.Insert(0, 7);
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.applied_inserts, 1u);
  EXPECT_EQ(index.Query({0, 7}).spg, SpgByDoubleBfs(g, 0, 7));
  EXPECT_EQ(index.Query({1, 6}).spg, SpgByDoubleBfs(g, 1, 6));
}

TEST(DynamicUpdateTest, DeleteDisconnectsImmediately) {
  Graph g = PathGraph(8);
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  GraphDelta delta;
  delta.Delete(3, 4);  // the bridge
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.applied_deletes, 1u);
  EXPECT_FALSE(index.Query({0, 7}).spg.Connected());
  EXPECT_EQ(index.Query({0, 3}).spg, SpgByDoubleBfs(g, 0, 3));
  EXPECT_EQ(index.Query({4, 7}).spg, SpgByDoubleBfs(g, 4, 7));
}

TEST(DynamicUpdateTest, NoopScriptChangesNothing) {
  Graph g = BarabasiAlbert(120, 2, 5);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  QbsIndex baseline = QbsIndex::BuildWithLandmarks(g, index.landmarks(),
                                                   options);
  GraphDelta delta;
  const Edge existing = g.EdgeList().front();
  delta.Insert(existing.u, existing.v);  // already present
  delta.Delete(0, 0);                    // self-loop: invalid
  delta.Insert(5, 5);                    // self-loop: invalid
  delta.Delete(1, 119);                  // absent (in BA order): no-op
  const bool absent = !g.HasEdge(1, 119);
  const UpdateStats stats = index.ApplyUpdates(delta);
  EXPECT_EQ(stats.AppliedTotal(), absent ? 0u : 1u);
  EXPECT_EQ(stats.invalid_updates, 2u);
  EXPECT_GE(stats.noop_updates, 1u);
  if (stats.AppliedTotal() == 0) {
    EXPECT_EQ(stats.repaired_columns, 0u);
    EXPECT_EQ(stats.rebuilt_columns, 0u);
    AssertSameScheme(g, index, baseline);
  }
}

}  // namespace
}  // namespace qbs
