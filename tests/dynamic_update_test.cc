// Targeted edge edits against QbsIndex::ApplyUpdates: a ring cut and its
// repair, same-level edits, an index loaded from a file, a vertex restored
// to its old depth, pooled searchers across an edit, and no-op scripts.
// After each edit the index must equal a fresh build on the updated graph
// (Lemma 5.2: (G, R) determines the labelling). Random edit scripts are
// oracle_driver_test's.

#include <algorithm>
#include <cstdio>
#include <string>
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

using testing::AdjacencyMismatch;
using testing::ColumnDepths;
using testing::DepthsMismatch;
using testing::SchemeMismatch;

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

  GraphDelta cut;
  cut.Delete(0, 1);
  UpdateStats stats = index.ApplyUpdates(cut);
  EXPECT_EQ(stats.repaired_columns, 1u);
  EXPECT_EQ(ColumnDepths(index, 0)[1], 63u);
  EXPECT_EQ(DepthsMismatch(g, index), "");
  EXPECT_EQ(SchemeMismatch(index,
                           QbsIndex::BuildWithLandmarks(g, {0, 32}, options)),
            "");

  GraphDelta heal;
  heal.Insert(1, 0);
  stats = index.ApplyUpdates(heal);
  EXPECT_EQ(stats.repaired_columns, 1u);
  EXPECT_EQ(ColumnDepths(index, 0), before);
  EXPECT_EQ(SchemeMismatch(index,
                           QbsIndex::BuildWithLandmarks(g, {0, 32}, options)),
            "");
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
    EXPECT_EQ(SchemeMismatch(index, fresh), "");
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
  EXPECT_EQ(DepthsMismatch(g, *loaded), "");
  EXPECT_EQ(SchemeMismatch(*loaded, fresh), "");
  std::remove(path.c_str());
}

// A vertex that loses its only parent can regain its old depth through a
// vertex the same batch lowers. Deleting 1-2 leaves 2, 3 and 4 without
// support; inserting 0-7 lowers 7 to depth 1, and 2 comes back at depth 2
// through it. 2 ends where it started, yet its subtree must be re-reached.
TEST(DynamicUpdateTest, VertexRestoredToItsOldDepthInOneBatch) {
  Graph g = Graph::FromEdges(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                 {0, 5}, {5, 7}, {7, 2}, {0, 6}});
  QbsOptions options;
  options.num_landmarks = 1;
  QbsIndex index = QbsIndex::BuildWithLandmarks(g, {0}, options);
  index.EnableUpdates(&g);
  ASSERT_EQ(ColumnDepths(index, 0)[2], 2u);

  GraphDelta delta;
  delta.Delete(1, 2);
  delta.Insert(0, 7);
  ASSERT_EQ(index.ApplyUpdates(delta).AppliedTotal(), 2u);
  const std::vector<uint32_t> depth = ColumnDepths(index, 0);
  EXPECT_EQ(depth[2], 2u);
  EXPECT_EQ(depth[3], 3u);
  EXPECT_EQ(depth[4], 4u);
  EXPECT_EQ(DepthsMismatch(g, index), "");
  EXPECT_EQ(SchemeMismatch(index,
                           QbsIndex::BuildWithLandmarks(g, {0}, options)),
            "");
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
  EXPECT_EQ(AdjacencyMismatch(g, index), "");

  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : SampleQueryPairs(g, 35, 17)) {
    requests.push_back({u, v});
  }
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
    EXPECT_EQ(SchemeMismatch(index, baseline), "");
  }
}

}  // namespace
}  // namespace qbs
