#include "graph/frontier.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/spg.h"
#include "util/rng.h"

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

Graph FamilyGraph(int family) {
  switch (family) {
    case 0:
      return BarabasiAlbert(120, 2, 5);
    case 1:
      return ErdosRenyi(120, 180, 6);  // sparse: several components
    default:
      return GridGraph(9, 11);
  }
}

// Side t has expanded `expanded` levels from `source`: it must report the
// BFS depth of every vertex up to that level and kUnreachable beyond it.
void ExpectSideDepths(const BidirectionalSearch& search, int t,
                      const std::vector<uint32_t>& bfs, uint32_t expanded) {
  for (VertexId x = 0; x < bfs.size(); ++x) {
    const uint32_t want = bfs[x] <= expanded ? bfs[x] : kUnreachable;
    ASSERT_EQ(search.Depth(t, x), want) << "side " << t << " vertex " << x;
  }
}

std::vector<VertexId> SortedMeetSet(const BidirectionalSearch& search) {
  std::vector<VertexId> meet = search.meet_set();
  std::sort(meet.begin(), meet.end());
  return meet;
}

// Vertices both sides have settled, by brute force over their depths.
std::vector<VertexId> SettledByBoth(const BidirectionalSearch& search,
                                    VertexId n) {
  std::vector<VertexId> both;
  for (VertexId x = 0; x < n; ++x) {
    if (search.Depth(0, x) != kUnreachable &&
        search.Depth(1, x) != kUnreachable) {
      both.push_back(x);
    }
  }
  return both;
}

TEST(BidirectionalSearchTest, DepthsFollowBfsAndMeetSetIsTheIntersection) {
  for (int family = 0; family < 3; ++family) {
    const Graph g = FamilyGraph(family);
    const VertexId n = g.NumVertices();
    BidirectionalSearch search(g);
    Rng rng(100 + family);
    for (int query = 0; query < 40; ++query) {
      const auto u = static_cast<VertexId>(rng.UniformInt(n));
      auto v = static_cast<VertexId>(rng.UniformInt(n - 1));
      if (v >= u) ++v;
      const std::vector<uint32_t> bfs[2] = {BfsDistances(g, u),
                                            BfsDistances(g, v)};
      search.Reset();
      search.Seed(0, u);
      search.Seed(1, v);
      uint32_t d[2] = {0, 0};
      // Keep expanding past the first meet, in a random side order, until
      // a side runs out of vertices.
      while (search.levels(0).LevelSize(d[0]) != 0 &&
             search.levels(1).LevelSize(d[1]) != 0) {
        const int t = static_cast<int>(rng.UniformInt(2));
        uint64_t degree_sum = 0;
        for (const VertexId x : search.levels(t).Level(d[t])) {
          degree_sum += g.Degree(x);
        }
        ASSERT_EQ(search.ExpandLevel(t).scanned, degree_sum);
        ++d[t];
        ExpectSideDepths(search, 0, bfs[0], d[0]);
        ExpectSideDepths(search, 1, bfs[1], d[1]);
        const std::vector<VertexId> meet = SortedMeetSet(search);
        ASSERT_TRUE(std::adjacent_find(meet.begin(), meet.end()) ==
                    meet.end());  // each vertex met once
        ASSERT_EQ(meet, SettledByBoth(search, n))
            << "family " << family << " query " << query;
      }
    }
  }
}

TEST(BidirectionalSearchTest, ThousandQueriesLeaveNoStaleState) {
  const Graph g = BarabasiAlbert(200, 2, 9);
  const VertexId n = g.NumVertices();
  BidirectionalSearch search(g);
  Rng rng(17);
  std::vector<VertexId> settled_before;
  for (int query = 0; query < 1000; ++query) {
    const auto u = static_cast<VertexId>(rng.UniformInt(n));
    auto v = static_cast<VertexId>(rng.UniformInt(n - 1));
    if (v >= u) ++v;
    search.Reset();
    // Everything the previous query settled, on either side (and marked
    // on-path by its walk), reads unreached on both sides now.
    for (const VertexId x : settled_before) {
      ASSERT_EQ(search.Depth(0, x), kUnreachable) << "query " << query;
      ASSERT_EQ(search.Depth(1, x), kUnreachable) << "query " << query;
    }
    ASSERT_TRUE(search.meet_set().empty());
    search.Seed(0, u);
    search.Seed(1, v);
    // The Bi-BFS loop: expand the smaller side until the sides meet, then
    // walk back from the meet set; the answer must be the exact SPG.
    uint32_t d[2] = {0, 0};
    bool met = false;
    while (search.levels(0).LevelSize(d[0]) != 0 &&
           search.levels(1).LevelSize(d[1]) != 0) {
      const size_t size[2] = {search.levels(0).TotalSize(),
                              search.levels(1).TotalSize()};
      const int t = size[0] <= size[1] ? 0 : 1;
      search.ExpandLevel(t);
      ++d[t];
      if (!search.meet_set().empty()) {
        met = true;
        break;
      }
    }
    ShortestPathGraph spg;
    spg.u = u;
    spg.v = v;
    if (met) {
      spg.distance = d[0] + d[1];
      for (const VertexId m : search.meet_set()) {
        search.AddBackwardStart(0, m);
        search.AddBackwardStart(1, m);
      }
      for (int t = 0; t < 2; ++t) search.RunBackwardWalk(t, &spg.edges);
      spg.Normalize();
    }
    ASSERT_EQ(spg, SpgByDoubleBfs(g, u, v)) << "query " << query;
    settled_before.clear();
    for (VertexId x = 0; x < n; ++x) {
      if (search.Depth(0, x) != kUnreachable ||
          search.Depth(1, x) != kUnreachable) {
        settled_before.push_back(x);
      }
    }
  }
}

}  // namespace
}  // namespace qbs
