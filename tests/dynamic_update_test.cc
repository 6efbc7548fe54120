// The dynamic-index gauntlet: random edit scripts against
// QbsIndex::ApplyUpdates must leave the index bit-identical to a
// from-scratch build on the updated graph — labels, meta-graph, Δ
// segments, and answers (SameAnswer on sampled pairs, including adjacent
// and two-hop pairs).
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), which is
// what makes bit-identity a legitimate oracle: same updated graph, same
// landmarks, same bits.
//
// Every column's depths, derived from the repaired (L, M), must also equal
// a fresh BFS after every batch: the next repair reads its old depths from
// them. So must the landmark adjacency bits the Z-pair test reads: each
// equals HasEdge on the edited graph, and again after Save and
// LoadFromFile, which rebuild them.
//
// Seeds come from QBS_DYNAMIC_SEEDS (comma-separated) when set — the CI
// dynamic-gauntlet job passes 16 fresh seeds per run and logs them — and
// default to 1..16 locally (testing::DynamicSeeds). Every seed is printed,
// so any failure line is directly replayable with QBS_DYNAMIC_SEEDS=<seed>.

#include <algorithm>
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
#include "graph/bfs.h"
#include "graph/graph_delta.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

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

// A deep family: a long path with sparse chords, all in its first two
// thirds. Deleting a path edge under a chord raises the depth of a long
// stretch; deleting one in the chord-free tail disconnects the rest.
Graph DeepFamilyGraph(uint64_t seed) {
  constexpr VertexId kN = 240;
  std::mt19937_64 rng(seed);
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < kN; ++v) edges.emplace_back(v, v + 1);
  for (int c = 0; c < 8; ++c) {
    const auto a = static_cast<VertexId>(rng() % (2 * kN / 3 - 30));
    edges.emplace_back(a, a + 2 + static_cast<VertexId>(rng() % 28));
  }
  return Graph::FromEdges(kN, std::move(edges));
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
  const uint32_t k = a.num_landmarks();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(a.Get(v, i), b.Get(v, i))
          << "label mismatch at v=" << v << " landmark=" << i;
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

// Landmark column i's depths, derived from the index's (L, M).
std::vector<uint32_t> ColumnDepths(const QbsIndex& index, LandmarkIndex i) {
  std::vector<uint32_t> depth(index.graph().NumVertices());
  const uint32_t* meta_row = index.meta_graph().DistanceRow(i);
  for (VertexId v = 0; v < depth.size(); ++v) {
    depth[v] = DerivedDepth(index.labeling(), meta_row, v);
  }
  return depth;
}

// The derived depths of every column equal a fresh BFS on the current
// graph.
void AssertDepthsMatchBfs(const Graph& g, const QbsIndex& index) {
  const std::vector<VertexId>& landmarks = index.landmarks();
  for (size_t i = 0; i < landmarks.size(); ++i) {
    ASSERT_EQ(ColumnDepths(index, static_cast<LandmarkIndex>(i)),
              BfsDistances(g, landmarks[i]))
        << "derived depths diverge from BFS in column " << i;
  }
}

// Every landmark adjacency bit equals HasEdge on the current graph.
void AssertAdjacencyMatchesGraph(const Graph& g, const QbsIndex& index) {
  const std::vector<VertexId>& landmarks = index.landmarks();
  const LandmarkAdjacency& adjacency = index.landmark_adjacency();
  for (size_t i = 0; i < landmarks.size(); ++i) {
    for (VertexId w = 0; w < g.NumVertices(); ++w) {
      ASSERT_EQ(adjacency.Adjacent(static_cast<LandmarkIndex>(i), w),
                g.HasEdge(landmarks[i], w))
          << "adjacency bit of landmark " << landmarks[i] << " and " << w;
    }
  }
}

// Sampled pairs + adjacent and two-hop pairs (close pairs must stay
// bit-identical too).
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
  for (const uint64_t seed : testing::DynamicSeeds()) {
    std::mt19937_64 rng(seed);
    Graph g = MakeFamilyGraph(seed);
    QbsOptions options;
    options.num_landmarks = 8;
    options.num_threads = 2;
    std::printf("[gauntlet] seed=%" PRIu64 " family=%" PRIu64 "\n", seed,
                seed % 3);
    QbsIndex index = QbsIndex::Build(g, options);
    index.EnableUpdates(&g);
    const std::vector<VertexId> landmarks = index.landmarks();

    for (int batch = 0; batch < 3; ++batch) {
      const GraphDelta delta = RandomScript(g, rng, 10);
      index.ApplyUpdates(delta);
      QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, landmarks, options);
      AssertDepthsMatchBfs(g, index);
      AssertAdjacencyMatchesGraph(g, index);
      AssertSameScheme(g, index, fresh);
      AssertSameAnswers(g, index, fresh, rng);
      if (::testing::Test::HasFatalFailure()) {
        return;  // the printed seed line identifies the failing script
      }
    }
    // The bits are derived, not saved: a reload rebuilds them from the
    // edited graph.
    const std::string path = ::testing::TempDir() + "/gauntlet_" +
                             std::to_string(seed) + ".qbs";
    ASSERT_TRUE(index.Save(path));
    const auto loaded = QbsIndex::LoadFromFile(g, path, options);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.has_value());
    AssertAdjacencyMatchesGraph(g, *loaded);
    AssertSameAnswers(g, *loaded, index, rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The churn shape of a serving daemon: one edge per batch, alternating
// insert and delete, on the deep family, where a delete can push a long
// stretch deeper or cut it off and an insert can pull it back. After every
// batch the index must equal a fresh build.
TEST(DynamicUpdateTest, DeepFamilyChurnMatchesFreshBuild) {
  for (const uint64_t seed : testing::DynamicSeeds()) {
    std::mt19937_64 rng(seed);
    Graph g = DeepFamilyGraph(seed);
    QbsOptions options;
    options.num_landmarks = 6;
    options.num_threads = 2;
    std::printf("[deep churn] seed=%" PRIu64 "\n", seed);
    QbsIndex index = QbsIndex::Build(g, options);
    index.EnableUpdates(&g);
    const std::vector<VertexId> landmarks = index.landmarks();
    const VertexId n = g.NumVertices();

    for (int batch = 0; batch < 120; ++batch) {
      GraphDelta delta;
      if (batch % 2 == 0) {
        // Mostly short chords, so the graph stays deep; now and then any
        // pair, which can reconnect a cut-off tail.
        const auto a = static_cast<VertexId>(rng() % n);
        const auto hop = static_cast<VertexId>(2 + rng() % 20);
        const VertexId b = rng() % 4 == 0 ? static_cast<VertexId>(rng() % n)
                                          : std::min<VertexId>(n - 1, a + hop);
        delta.Insert(a, b);
      } else {
        const std::vector<Edge> edges = g.EdgeList();
        const Edge& e = edges[rng() % edges.size()];
        delta.Delete(e.u, e.v);
      }
      const UpdateStats stats = index.ApplyUpdates(delta);
      ASSERT_LE(stats.AppliedTotal(), 1u);
      EXPECT_EQ(stats.rebuilt_columns, 0u);
      ASSERT_LE(stats.repaired_columns, landmarks.size());
      QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, landmarks, options);
      AssertDepthsMatchBfs(g, index);
      AssertAdjacencyMatchesGraph(g, index);
      AssertSameScheme(g, index, fresh);
      AssertSameAnswers(g, index, fresh, rng);
      if (::testing::Test::HasFatalFailure()) {
        std::printf("[deep churn] failed at batch %d\n", batch);
        return;
      }
    }
  }
}

// Deleting one ring edge next to a landmark moves half the ring deeper:
// the vertex beside the cut goes from depth 1 to n - 1, and the arc behind
// the other landmark loses its labels. The other column keeps every depth
// and label (its landmark still reaches both ends of the cut), so exactly
// one column changes. Re-inserting the edge must bring every depth back.
TEST(DynamicUpdateTest, RingDeleteRaisesLongArcAndInsertRestoresIt) {
  Graph g = CycleGraph(64);
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::BuildWithLandmarks(g, {0, 32}, options);
  index.EnableUpdates(&g);
  const std::vector<uint32_t> before = ColumnDepths(index, 0);
  std::mt19937_64 rng(64);

  GraphDelta cut;
  cut.Delete(0, 1);
  UpdateStats stats = index.ApplyUpdates(cut);
  EXPECT_EQ(stats.repaired_columns, 1u);
  EXPECT_EQ(ColumnDepths(index, 0)[1], 63u);
  AssertDepthsMatchBfs(g, index);
  AssertSameScheme(g, index,
                   QbsIndex::BuildWithLandmarks(g, {0, 32}, options));
  AssertSameAnswers(g, index,
                    QbsIndex::BuildWithLandmarks(g, {0, 32}, options), rng);

  GraphDelta heal;
  heal.Insert(1, 0);
  stats = index.ApplyUpdates(heal);
  EXPECT_EQ(stats.repaired_columns, 1u);
  EXPECT_EQ(ColumnDepths(index, 0), before);
  AssertSameScheme(g, index,
                   QbsIndex::BuildWithLandmarks(g, {0, 32}, options));
}

// An edge between two vertices at equal depth in every landmark column
// changes no distance and no parent edge, so editing it touches no column:
// a same-level insert, then a same-level delete, each leave the index
// bit-identical to a fresh build with nothing repaired or rebuilt.
TEST(DynamicUpdateTest, SameLevelEditsTouchNoColumn) {
  Graph g = BarabasiAlbert(300, 3, 17);
  QbsOptions options;
  options.num_landmarks = 3;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  const std::vector<VertexId> landmarks = index.landmarks();
  std::vector<std::vector<uint32_t>> depth;
  for (const VertexId r : landmarks) depth.push_back(BfsDistances(g, r));
  const auto same_level = [&](VertexId a, VertexId b) {
    for (const auto& d : depth) {
      if (d[a] != d[b]) return false;
    }
    return true;
  };
  // Pick the delete before the insert so it is an edge of the original
  // graph, not the one just added.
  const std::vector<Edge> edges = g.EdgeList();
  const auto doomed = std::find_if(edges.begin(), edges.end(),
                                   [&](const Edge& e) {
                                     return same_level(e.u, e.v);
                                   });
  ASSERT_NE(doomed, edges.end()) << "no same-level edge in the graph";
  Edge added{0, 0};
  for (VertexId a = 0; a < g.NumVertices() && added.u == added.v; ++a) {
    for (VertexId b = a + 1; b < g.NumVertices(); ++b) {
      if (!g.HasEdge(a, b) && same_level(a, b)) {
        added = Edge{a, b};
        break;
      }
    }
  }
  ASSERT_NE(added.u, added.v) << "no same-level non-edge in the graph";

  std::mt19937_64 rng(17);
  GraphDelta insert;
  insert.Insert(added.u, added.v);
  GraphDelta erase;
  erase.Delete(doomed->u, doomed->v);
  for (const GraphDelta& delta : {insert, erase}) {
    const UpdateStats stats = index.ApplyUpdates(delta);
    EXPECT_EQ(stats.AppliedTotal(), 1u);
    EXPECT_EQ(stats.repaired_columns, 0u);
    EXPECT_EQ(stats.rebuilt_columns, 0u);
    const QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, landmarks, options);
    AssertSameScheme(g, index, fresh);
    AssertSameAnswers(g, index, fresh, rng);
    for (size_t i = 0; i < landmarks.size(); ++i) {
      ASSERT_EQ(BfsDistances(g, landmarks[i]), depth[i]);  // depths held
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
  // The repair derives its old depths from the loaded (L, M), so a
  // deserialized index is just as updatable as a built one.
  loaded->EnableUpdates(&g);
  GraphDelta delta;
  delta.Insert(0, 149);
  delta.Delete(g.EdgeList().front().u, g.EdgeList().front().v);
  loaded->ApplyUpdates(delta);
  QbsIndex fresh = QbsIndex::BuildWithLandmarks(g, loaded->landmarks(), options);
  AssertDepthsMatchBfs(g, *loaded);
  AssertSameScheme(g, *loaded, fresh);
  std::remove(path.c_str());
}

// Searchers outlive an edit: the pooled searchers hold references to the
// index's Δ cache and landmark adjacency bits, so ApplyUpdates must
// re-derive both in place. Replacing either object would leave the pool
// reading freed memory, which ASan reports on the next query.
TEST(DynamicUpdateTest, PooledSearchersOutliveAnEdit) {
  Graph g = BarabasiAlbert(200, 3, 17);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  index.EnableUpdates(&g);
  {
    QbsIndex::SearcherLease lease(index, 2);
    lease[0].Query(0, 199);
    lease[1].Query(1, 198);
  }
  ASSERT_EQ(index.BatchSearcherPoolSize(), 2u);
  const LandmarkAdjacency* adjacency = &index.landmark_adjacency();
  const DeltaCache* delta_cache = &index.delta_cache();
  const QbsBuildTimings timings = index.timings();

  // Move one landmark's edges, so both the bits and Δ change.
  const VertexId r = index.landmarks().front();
  VertexId far = 0;
  while (far == r || g.HasEdge(r, far) ||
         index.labeling().IsLandmark(far)) {
    ++far;
  }
  GraphDelta delta;
  delta.Insert(r, far);
  delta.Delete(r, g.Neighbors(r).front());
  ASSERT_EQ(index.ApplyUpdates(delta).AppliedTotal(), 2u);

  EXPECT_EQ(&index.landmark_adjacency(), adjacency);
  EXPECT_EQ(&index.delta_cache(), delta_cache);
  EXPECT_EQ(index.timings().labeling_seconds, timings.labeling_seconds);
  EXPECT_EQ(index.timings().delta_seconds, timings.delta_seconds);
  AssertAdjacencyMatchesGraph(g, index);

  std::mt19937_64 rng(17);
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : ProbePairs(g, rng)) requests.push_back({u, v});
  for (VertexId w = 0; w < g.NumVertices(); w += 23) {
    requests.push_back({r, w});
    requests.push_back({far, w});
  }
  QbsIndex::BatchOptions batch;
  batch.num_threads = 2;
  const std::vector<QueryResponse> responses =
      index.QueryBatch(requests, batch);
  // The two pooled searchers answered the batch: none was added.
  EXPECT_EQ(index.BatchSearcherPoolSize(), 2u);
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& q = requests[i];
    ASSERT_EQ(responses[i].spg, SpgByDoubleBfs(g, q.u, q.v))
        << "u=" << q.u << " v=" << q.v;
  }
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
