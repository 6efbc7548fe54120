#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/edge_list_io.h"
#include "graph/graph.h"

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
