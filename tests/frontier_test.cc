#include "graph/frontier.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/graph.h"

namespace qbs {
namespace {

TEST(LevelStackTest, LevelsAreContiguousSpans) {
  LevelStack levels;
  levels.BeginLevel();
  levels.Push(7);
  levels.BeginLevel();
  levels.Push(1);
  levels.Push(2);
  levels.BeginLevel();  // empty level
  ASSERT_EQ(levels.NumLevels(), 3u);
  EXPECT_EQ(levels.LevelSize(0), 1u);
  EXPECT_EQ(levels.LevelSize(1), 2u);
  EXPECT_EQ(levels.LevelSize(2), 0u);
  EXPECT_EQ(levels.TotalSize(), 3u);
  const auto l1 = levels.Level(1);
  EXPECT_EQ(std::vector<VertexId>(l1.begin(), l1.end()),
            (std::vector<VertexId>{1, 2}));
  levels.Clear();
  EXPECT_EQ(levels.NumLevels(), 0u);
  EXPECT_EQ(levels.TotalSize(), 0u);
}

TEST(RootedBfsScratchTest, ResetIsScopedToVisited) {
  RootedBfsScratch s;
  s.Prepare(10);
  s.depth[3] = 1;
  s.queue.push_back(3);
  s.ResetVisited();
  EXPECT_EQ(s.depth[3], kUnreachable);
  EXPECT_TRUE(s.queue.empty());
}

}  // namespace
}  // namespace qbs
