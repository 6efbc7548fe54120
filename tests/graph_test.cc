#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/edge_list_io.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace qbs {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, BasicConstruction) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, RemovesSelfLoopsAndDuplicates) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_FALSE(g.HasEdge(2, 2));
}

TEST(GraphTest, NeighborsSortedAscending) {
  Graph g = Graph::FromEdges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(GraphTest, IsolatedVertices) {
  Graph g = Graph::FromEdges(10, {{0, 1}});
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(5), 0u);
  EXPECT_TRUE(g.Neighbors(5).empty());
}

TEST(GraphTest, MaxAndAverageDegree) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.MaxDegree(), 3u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 6.0 / 4.0);
}

TEST(GraphTest, EdgeListRoundTrip) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 3}};
  Graph g = Graph::FromEdges(4, edges);
  EXPECT_EQ(g.EdgeList(), edges);
}

TEST(GraphTest, SizeBytesGrowsWithEdges) {
  Graph small = Graph::FromEdges(4, {{0, 1}});
  Graph large = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
}

// Offset 1 overshoots the adjacency and offset 2 drops back. A check that
// read vertex 0's list before it had seen offset 2 would walk 98 entries
// past the end of the adjacency.
TEST(GraphTest, IsValidCsrChecksEveryOffsetBeforeAnyList) {
  const std::vector<uint64_t> offsets{0, 100, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  const std::vector<VertexId> adjacency{1, 2};
  EXPECT_FALSE(Graph::IsValidCsr(offsets, adjacency));
}

// The invariants FromCsr requires, spelled out one at a time with every
// read bounds-checked: the reference IsValidCsr must agree with.
bool ReferenceIsValidCsr(const std::vector<uint64_t>& offsets,
                         const std::vector<VertexId>& adjacency) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != adjacency.size() || adjacency.size() % 2 != 0) {
    return false;
  }
  const size_t n = offsets.size() - 1;
  for (size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1] || offsets[v + 1] > adjacency.size()) {
      return false;
    }
    const std::vector<VertexId> list(adjacency.begin() + offsets[v],
                                     adjacency.begin() + offsets[v + 1]);
    if (std::adjacent_find(list.begin(), list.end(),
                           std::greater_equal<>()) != list.end() ||
        std::find(list.begin(), list.end(), v) != list.end() ||
        std::any_of(list.begin(), list.end(),
                    [n](VertexId w) { return w >= n; })) {
      return false;
    }
  }
  return true;
}

// Random small graphs, each with one corruption drawn from the ways a CSR
// can go wrong; IsValidCsr must give the reference's verdict on every one.
TEST(GraphTest, IsValidCsrMatchesReference) {
  Rng rng(20261019);
  int corrupted = 0;
  int rejected = 0;
  while (corrupted < 2500) {
    const auto n = static_cast<VertexId>(2 + rng.UniformInt(11));
    std::vector<Edge> edges;
    const uint64_t m = 1 + rng.UniformInt(2 * n);
    for (uint64_t e = 0; e < m; ++e) {
      edges.emplace_back(static_cast<VertexId>(rng.UniformInt(n)),
                         static_cast<VertexId>(rng.UniformInt(n)));
    }
    const Graph g = Graph::FromEdges(n, edges);
    std::vector<uint64_t> offsets(g.RawOffsets().begin(),
                                  g.RawOffsets().end());
    std::vector<VertexId> adjacency(g.RawAdjacency().begin(),
                                    g.RawAdjacency().end());
    ASSERT_TRUE(Graph::IsValidCsr(offsets, adjacency));
    if (adjacency.empty()) continue;  // every draw was a self-loop

    const size_t size = adjacency.size();
    const size_t at = rng.UniformInt(size);  // an adjacency entry
    // The vertex whose list holds entry `at`.
    const auto owner = static_cast<VertexId>(
        std::upper_bound(offsets.begin(), offsets.end(), at) -
        offsets.begin() - 1);
    const bool has_prev = at > offsets[owner];
    switch (rng.UniformInt(9)) {
      case 0:  // an offset bump
        ++offsets[rng.UniformInt(n + 1)];
        break;
      case 1: {  // an offset drop
        uint64_t& offset = offsets[1 + rng.UniformInt(n)];
        if (offset == 0) continue;
        --offset;
        break;
      }
      case 2:  // a duplicate
        if (!has_prev) continue;
        adjacency[at] = adjacency[at - 1];
        break;
      case 3:  // a swapped pair
        if (!has_prev) continue;
        std::swap(adjacency[at - 1], adjacency[at]);
        break;
      case 4:  // a self-loop
        adjacency[at] = owner;
        break;
      case 5:  // an entry equal to n
        adjacency[at] = n;
        break;
      case 6:  // an odd size: one entry more or less in the last list
        if (rng.UniformInt(2) == 0) {
          adjacency.push_back(static_cast<VertexId>(rng.UniformInt(n)));
          ++offsets.back();
        } else {
          adjacency.pop_back();
          for (uint64_t& offset : offsets) {
            offset = std::min<uint64_t>(offset, adjacency.size());
          }
        }
        break;
      case 7:  // an empty first list
        offsets[1] = 0;
        break;
      case 8:  // an empty last list
        offsets[n - 1] = offsets[n];
        break;
    }
    ++corrupted;
    const bool expected = ReferenceIsValidCsr(offsets, adjacency);
    rejected += expected ? 0 : 1;
    ASSERT_EQ(Graph::IsValidCsr(offsets, adjacency), expected)
        << "case " << corrupted;
  }
  // Most corruptions break an invariant; a few (an empty list emptied
  // again) leave a valid CSR. Both verdicts are exercised.
  EXPECT_GT(rejected, 2000);
  EXPECT_LT(rejected, corrupted);
}

class EdgeListIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/edges.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(EdgeListIoTest, WriteReadRoundTrip) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  ASSERT_TRUE(WriteEdgeList(g, path_));
  auto back = ReadEdgeList(path_);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->NumVertices(), 5u);
  EXPECT_EQ(back->EdgeList(), g.EdgeList());
}

TEST_F(EdgeListIoTest, SkipsCommentsAndRelabels) {
  std::ofstream out(path_);
  out << "# SNAP-style comment\n"
      << "% KONECT-style comment\n"
      << "1000 2000\n"
      << "2000 3000\n";
  out.close();
  auto g = ReadEdgeList(path_);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumVertices(), 3u);  // relabelled densely
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
}

// Vertices are numbered by ascending file id, not by first appearance: a
// file that uses every id 0..n-1 keeps its ids, silently, and sparse ids
// keep their order, with a note.
TEST_F(EdgeListIoTest, NumbersVerticesByAscendingId) {
  std::ofstream(path_) << "3 4\n0 1\n2 3\n";
  ::testing::internal::CaptureStderr();
  auto g = ReadEdgeList(path_);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->EdgeList(), (std::vector<Edge>{{0, 1}, {2, 3}, {3, 4}}));

  std::ofstream(path_) << "50 20\n20 90\n";
  ::testing::internal::CaptureStderr();
  g = ReadEdgeList(path_);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("ids are not 0..2"),
            std::string::npos);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->EdgeList(), (std::vector<Edge>{{0, 1}, {0, 2}}));

  // Ids far sparser than the edges, and a 64-bit id after 32-bit ones.
  for (const char* text :
       {"7 1000000\n7 3\n", "3 7\n7 18446744073709551615\n"}) {
    std::ofstream(path_) << text;
    ::testing::internal::CaptureStderr();
    g = ReadEdgeList(path_);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("ids are not 0..2"),
              std::string::npos);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->EdgeList(), (std::vector<Edge>{{0, 1}, {1, 2}})) << text;
  }
}

TEST_F(EdgeListIoTest, DirectedInputBecomesUndirected) {
  std::ofstream out(path_);
  out << "0 1\n1 0\n";
  out.close();
  auto g = ReadEdgeList(path_);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumEdges(), 1u);
}

TEST_F(EdgeListIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadEdgeList("/nonexistent/file.txt").has_value());
}

TEST_F(EdgeListIoTest, ParseErrorFails) {
  std::ofstream out(path_);
  out << "not numbers\n";
  out.close();
  EXPECT_FALSE(ReadEdgeList(path_).has_value());
}

TEST_F(EdgeListIoTest, IdsMustFitUint64) {
  std::ofstream(path_) << "18446744073709551615 5\n";
  auto g = ReadEdgeList(path_);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumVertices(), 2u);
  // 2^64 + 1 must not wrap onto vertex 1.
  std::ofstream(path_) << "18446744073709551617 5\n1 7\n";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(ReadEdgeList(path_).has_value());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "parse error at " + path_ + ":1"),
            std::string::npos);
}

}  // namespace
}  // namespace qbs
