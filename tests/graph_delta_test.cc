// GraphDelta / ComputeNetChanges / ApplyNetChanges semantics: script-order
// evaluation, no-op and invalid accounting, insert/delete cancellation,
// normalization, and the CSR splice — bit-identical to Graph::FromEdges on
// the edited edge list, for G and for the patched sparsified graph G⁻.
//
// The splice property test draws its scripts from testing::DynamicSeeds
// (QBS_DYNAMIC_SEEDS), like the dynamic-index gauntlet, and prints each
// seed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/guided_search.h"
#include "core/labeling.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "tests/test_util.h"

namespace qbs {
namespace {

TEST(GraphDeltaTest, NetInsertAndDelete) {
  const Graph g = PathGraph(5);  // 0-1-2-3-4
  GraphDelta delta;
  delta.Insert(0, 4);
  delta.Delete(1, 2);
  const NetChanges net = ComputeNetChanges(g, delta);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.inserts[0], Edge(0, 4));
  ASSERT_EQ(net.deletes.size(), 1u);
  EXPECT_EQ(net.deletes[0], Edge(1, 2));
  EXPECT_EQ(net.noop_inserts, 0u);
  EXPECT_EQ(net.noop_deletes, 0u);
  EXPECT_EQ(net.invalid, 0u);

  const Graph updated = ApplyNetChanges(g, net);
  EXPECT_EQ(updated.NumVertices(), g.NumVertices());
  EXPECT_EQ(updated.NumEdges(), g.NumEdges());  // one in, one out
  EXPECT_TRUE(updated.HasEdge(0, 4));
  EXPECT_FALSE(updated.HasEdge(1, 2));
  EXPECT_TRUE(updated.HasEdge(2, 3));
}

TEST(GraphDeltaTest, NoopsAreCountedNotApplied) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 1);  // already present
  delta.Delete(0, 3);  // absent
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.noop_inserts, 1u);
  EXPECT_EQ(net.noop_deletes, 1u);
}

TEST(GraphDeltaTest, InvalidEntriesAreSkipped) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(2, 2);    // self-loop
  delta.Insert(0, 99);   // out of range
  delta.Delete(99, 0);   // out of range
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.invalid, 3u);
}

TEST(GraphDeltaTest, InsertThenDeleteCancels) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 2);
  delta.Delete(0, 2);
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());

  // The reverse direction on a present edge cancels too.
  GraphDelta delta2;
  delta2.Delete(0, 1);
  delta2.Insert(0, 1);
  const NetChanges net2 = ComputeNetChanges(g, delta2);
  EXPECT_TRUE(net2.EmptyNet());
}

TEST(GraphDeltaTest, ScriptOrderGovernsNoopAccounting) {
  const Graph g = PathGraph(4);
  GraphDelta delta;
  delta.Insert(0, 2);  // new
  delta.Insert(0, 2);  // now a no-op against the evolving set
  delta.Delete(0, 2);  // cancels the first insert
  delta.Delete(0, 2);  // no-op again
  const NetChanges net = ComputeNetChanges(g, delta);
  EXPECT_TRUE(net.EmptyNet());
  EXPECT_EQ(net.noop_inserts, 1u);
  EXPECT_EQ(net.noop_deletes, 1u);
}

TEST(GraphDeltaTest, EndpointOrderIsNormalized) {
  const Graph g = PathGraph(5);
  GraphDelta delta;
  delta.Insert(4, 0);  // given reversed
  const NetChanges net = ComputeNetChanges(g, delta);
  ASSERT_EQ(net.inserts.size(), 1u);
  EXPECT_EQ(net.inserts[0], Edge(0, 4));
  // Deleting it in the other order within the same script cancels.
  GraphDelta both;
  both.Insert(4, 0);
  both.Delete(0, 4);
  EXPECT_TRUE(ComputeNetChanges(g, both).EmptyNet());
}

TEST(GraphDeltaTest, MaterializationMatchesManualEdgeSet) {
  const Graph g = BarabasiAlbert(60, 2, 7);
  GraphDelta delta;
  delta.Insert(0, 59);
  delta.Insert(1, 58);
  delta.Delete(0, 1);
  const NetChanges net = ComputeNetChanges(g, delta);
  const Graph updated = ApplyNetChanges(g, net);

  std::vector<Edge> expected = g.EdgeList();
  expected.erase(std::remove(expected.begin(), expected.end(), Edge(0, 1)),
                 expected.end());
  expected.push_back(Edge(0, 59));
  expected.push_back(Edge(1, 58));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(updated.EdgeList(), expected);
}

TEST(GraphDeltaTest, EmptyDeltaIsEmptyNet) {
  const Graph g = PathGraph(3);
  const NetChanges net = ComputeNetChanges(g, GraphDelta());
  EXPECT_TRUE(net.EmptyNet());
  const Graph updated = ApplyNetChanges(g, net);
  EXPECT_EQ(updated.EdgeList(), g.EdgeList());
}

// The edge list `net` turns `base` into, built independently of the splice.
Graph EditedByFromEdges(const Graph& base, const NetChanges& net) {
  std::vector<Edge> edges;
  for (const Edge& e : base.EdgeList()) {
    if (!std::binary_search(net.deletes.begin(), net.deletes.end(), e)) {
      edges.push_back(e);
    }
  }
  edges.insert(edges.end(), net.inserts.begin(), net.inserts.end());
  return Graph::FromEdges(base.NumVertices(), std::move(edges));
}

void ExpectSameCsr(const Graph& got, const Graph& want) {
  ASSERT_TRUE(std::ranges::equal(got.RawOffsets(), want.RawOffsets()));
  ASSERT_TRUE(std::ranges::equal(got.RawAdjacency(), want.RawAdjacency()));
}

// Splices `delta` into `g` and checks it against FromEdges, then checks the
// patched G⁻ against MakeSparsifiedGraph of the result.
void ExpectSpliceMatches(const Graph& g, const GraphDelta& delta,
                         const PathLabeling& labeling) {
  const NetChanges net = ComputeNetChanges(g, delta);
  const Graph spliced = ApplyNetChanges(g, net);
  ExpectSameCsr(spliced, EditedByFromEdges(g, net));
  ExpectSameCsr(
      PatchSparsifiedGraph(MakeSparsifiedGraph(g, labeling), net, labeling),
      MakeSparsifiedGraph(spliced, labeling));
}

TEST(GraphDeltaSpliceTest, EdgeCasesMatchFromEdges) {
  // Vertices 6 and 7 are isolated; 0 and 7 are the ends of the id range.
  const Graph g = Graph::FromEdges(
      8, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}});
  const PathLabeling labeling(8, {2});
  auto check = [&](auto&& edit) {
    GraphDelta delta;
    edit(delta);
    ExpectSpliceMatches(g, delta, labeling);
  };
  check([](GraphDelta& d) { d.Insert(0, 7); });  // first and last vertex
  check([](GraphDelta& d) { d.Insert(6, 7); });  // two isolated vertices
  check([](GraphDelta& d) { d.Delete(0, 1); });  // at vertex 0
  check([](GraphDelta& d) { d.Insert(7, 3); });  // at the last vertex
  check([](GraphDelta& d) {                      // every edge of vertex 1
    d.Delete(1, 0);
    d.Delete(1, 2);
    d.Delete(5, 1);
  });
  check([](GraphDelta& d) {  // mixed batch at one vertex, around its edges
    d.Delete(1, 2);
    d.Insert(1, 3);
    d.Insert(1, 7);
    d.Delete(0, 1);
    d.Insert(1, 4);
  });
  check([](GraphDelta& d) {  // edits at the landmark reach G only
    d.Delete(2, 3);
    d.Insert(2, 6);
    d.Insert(5, 6);
  });
  check([](GraphDelta&) {});  // nothing to splice
}

// Random scripts over graph families with isolated vertices, hubs and long
// paths; every script's splice equals FromEdges bit for bit, and so does
// the patched G⁻, with landmarks among the edited endpoints.
TEST(GraphDeltaSpliceTest, RandomScriptsMatchFromEdges) {
  for (const uint64_t seed : testing::DynamicSeeds()) {
    std::printf("[splice] seed=%" PRIu64 "\n", seed);
    std::mt19937_64 rng(seed);
    for (int family = 0; family < 3; ++family) {
      const Graph g = family == 0   ? ErdosRenyi(120, 150, seed)  // isolated
                      : family == 1 ? BarabasiAlbert(150, 2, seed)
                                    : PathGraph(90);
      const VertexId n = g.NumVertices();
      std::vector<VertexId> landmarks;
      for (VertexId r = static_cast<VertexId>(seed % 7); r < n; r += 11) {
        landmarks.push_back(r);
      }
      const PathLabeling labeling(n, landmarks);
      for (int script = 0; script < 10; ++script) {
        const std::vector<Edge> edges = g.EdgeList();
        // Edits cluster on a few vertices, the ends of the id range among
        // them, so one vertex often gets several inserts and deletes.
        const VertexId hot[] = {0, n - 1, static_cast<VertexId>(rng() % n),
                                static_cast<VertexId>(rng() % n)};
        GraphDelta delta;
        const int ops = 1 + static_cast<int>(rng() % 12);
        for (int op = 0; op < ops; ++op) {
          const VertexId a = rng() % 2 == 0 ? hot[rng() % 4]
                                            : static_cast<VertexId>(rng() % n);
          if (rng() % 2 == 0) {
            delta.Insert(a, static_cast<VertexId>(rng() % n));
          } else if (!edges.empty()) {
            const auto nbrs = g.Neighbors(a);
            const Edge e = nbrs.empty() ? edges[rng() % edges.size()]
                                        : Edge(a, nbrs[rng() % nbrs.size()]);
            delta.Delete(e.u, e.v);
          }
        }
        ExpectSpliceMatches(g, delta, labeling);
        if (::testing::Test::HasFatalFailure()) {
          std::printf("[splice] failed: family %d, script %d\n", family,
                      script);
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qbs
