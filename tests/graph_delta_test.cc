// GraphDelta / ComputeNetChanges / ApplyNetChanges semantics: script-order
// evaluation, no-op and invalid accounting, insert/delete cancellation,
// normalization, and the CSR splice — bit-identical to Graph::FromEdges on
// the edited edge list. Random scripts are the oracle driver's
// (oracle_driver_test.cc), which checks the splice at every state.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

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

// Splices `delta` into `g` and checks it against FromEdges.
void ExpectSpliceMatches(const Graph& g, const GraphDelta& delta) {
  const NetChanges net = ComputeNetChanges(g, delta);
  ExpectSameCsr(ApplyNetChanges(g, net), EditedByFromEdges(g, net));
}

TEST(GraphDeltaSpliceTest, EdgeCasesMatchFromEdges) {
  // Vertices 6 and 7 are isolated; 0 and 7 are the ends of the id range.
  const Graph g = Graph::FromEdges(
      8, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}});
  auto check = [&](auto&& edit) {
    GraphDelta delta;
    edit(delta);
    ExpectSpliceMatches(g, delta);
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
  check([](GraphDelta& d) {  // edits around vertex 2
    d.Delete(2, 3);
    d.Insert(2, 6);
    d.Insert(5, 6);
  });
  check([](GraphDelta&) {});  // nothing to splice
}

}  // namespace
}  // namespace qbs
