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
#include "tests/test_util.h"
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

// About a tenth of g's vertices, ascending, to block.
std::vector<VertexId> SomeBlocked(const Graph& g, Rng* rng) {
  std::vector<VertexId> blocked;
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    if (rng->UniformInt(10) == 0) blocked.push_back(x);
  }
  return blocked;
}

// A random pair of distinct unblocked vertices, or false if there is none.
bool PickPair(const Graph& g, const std::vector<VertexId>& blocked, Rng* rng,
              VertexId* u, VertexId* v) {
  std::vector<VertexId> open;
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    if (!std::binary_search(blocked.begin(), blocked.end(), x)) {
      open.push_back(x);
    }
  }
  if (open.size() < 2) return false;
  const size_t i = rng->UniformInt(open.size());
  size_t j = rng->UniformInt(open.size() - 1);
  if (j >= i) ++j;
  *u = open[i];
  *v = open[j];
  return true;
}

std::vector<Edge> Sorted(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

// The sides, in order, a Bi-BFS run from u and v expands until the first
// meet or until a side runs out; the side rule is random.
std::vector<int> RecordSides(BidirectionalSearch* search, VertexId u,
                             VertexId v, Rng* rng) {
  search->Reset();
  search->Seed(0, u);
  search->Seed(1, v);
  std::vector<int> sides;
  uint32_t d[2] = {0, 0};
  while (search->meet_set().empty() &&
         search->levels(0).LevelSize(d[0]) != 0 &&
         search->levels(1).LevelSize(d[1]) != 0) {
    const int t = static_cast<int>(rng->UniformInt(2));
    search->ExpandLevel(t);
    ++d[t];
    sides.push_back(t);
  }
  return sides;
}

TEST(BidirectionalSearchTest, MeetEdgesAreEveryEdgeIntoTheMeetSet) {
  for (int family = 0; family < 3; ++family) {
    const Graph g = FamilyGraph(family);
    Rng rng(300 + family);
    for (const bool any_blocked : {false, true}) {
      const std::vector<VertexId> blocked =
          any_blocked ? SomeBlocked(g, &rng) : std::vector<VertexId>{};
      BidirectionalSearch search(g, blocked);
      for (int query = 0; query < 40; ++query) {
        VertexId u = 0;
        VertexId v = 0;
        ASSERT_TRUE(PickPair(g, blocked, &rng, &u, &v));
        const std::vector<int> sides = RecordSides(&search, u, v, &rng);
        SCOPED_TRACE(::testing::Message() << "family " << family << " u=" << u
                                          << " v=" << v);
        if (search.meet_set().empty()) {
          ASSERT_TRUE(search.meet_edges().empty());
          continue;
        }
        // Brute force: every edge from the level side t expanded last into
        // the meet set.
        const int t = sides.back();
        const uint32_t d_t = search.Depth(t, search.meet_set()[0]) - 1;
        std::vector<Edge> want;
        for (const VertexId m : search.meet_set()) {
          for (const VertexId x : g.Neighbors(m)) {
            if (search.Depth(t, x) == d_t) want.emplace_back(x, m);
          }
        }
        ASSERT_FALSE(want.empty());
        ASSERT_EQ(Sorted(search.meet_edges()), Sorted(want));
      }
    }
  }
}

// Replays one Bi-BFS run with a kMeetsOnly final expansion: the
// scan, meet set and meet edges are ExpandLevel's, the new level holds the
// meet set alone, both reverse walks emit and scan the same, and Reset()
// leaves no vertex settled on either side.
TEST(BidirectionalSearchTest, LastLevelSettlesOnlyTheMeetSet) {
  for (int family = 0; family < 3; ++family) {
    const Graph g = FamilyGraph(family);
    Rng rng(500 + family);
    for (const bool any_blocked : {false, true}) {
      const std::vector<VertexId> blocked =
          any_blocked ? SomeBlocked(g, &rng) : std::vector<VertexId>{};
      BidirectionalSearch full(g, blocked);
      BidirectionalSearch last(g, blocked);
      size_t met = 0;
      for (int query = 0; query < 60; ++query) {
        VertexId u = 0;
        VertexId v = 0;
        ASSERT_TRUE(PickPair(g, blocked, &rng, &u, &v));
        SCOPED_TRACE(::testing::Message() << "family " << family << " u=" << u
                                          << " v=" << v);
        // Record the sides on `full`, then replay both up to the last one.
        const std::vector<int> sides = RecordSides(&full, u, v, &rng);
        full.Reset();
        full.Seed(0, u);
        full.Seed(1, v);
        last.Reset();
        last.Seed(0, u);
        last.Seed(1, v);
        if (sides.empty()) continue;
        for (size_t i = 0; i + 1 < sides.size(); ++i) {
          full.ExpandLevel(sides[i]);
          last.ExpandLevel(sides[i]);
        }
        const int t = sides.back();
        const LevelScan want = full.ExpandLevel(t);
        const LevelScan got = last.ExpandLevel(t, MeetRule::kMeetsOnly);
        ASSERT_EQ(got.scanned, want.scanned);
        ASSERT_EQ(got.blocked, want.blocked);
        ASSERT_EQ(last.meet_set(), full.meet_set());
        ASSERT_EQ(last.meet_edges(), full.meet_edges());
        const LevelStack& levels = last.levels(t);
        const auto level = levels.Level(levels.NumLevels() - 1);
        ASSERT_EQ(std::vector<VertexId>(level.begin(), level.end()),
                  last.meet_set());
        if (!full.meet_set().empty()) {
          ++met;
          std::vector<Edge> want_edges;
          std::vector<Edge> got_edges;
          full.StartBackwardFromMeet(&want_edges);
          last.StartBackwardFromMeet(&got_edges);
          for (int s = 0; s < 2; ++s) {
            ASSERT_EQ(last.RunBackwardWalk(s, &got_edges),
                      full.RunBackwardWalk(s, &want_edges));
          }
          ASSERT_EQ(Sorted(got_edges), Sorted(want_edges));
          if (blocked.empty()) {
            ShortestPathGraph spg;
            spg.u = u;
            spg.v = v;
            spg.distance = static_cast<uint32_t>(sides.size());
            spg.edges = got_edges;
            spg.Normalize();
            ASSERT_EQ(spg, SpgByDoubleBfs(g, u, v));
          }
        }
        last.Reset();
        for (VertexId x = 0; x < g.NumVertices(); ++x) {
          ASSERT_EQ(last.Depth(0, x), kUnreachable) << "x=" << x;
          ASSERT_EQ(last.Depth(1, x), kUnreachable) << "x=" << x;
        }
      }
      EXPECT_GT(met, 0u);
    }
  }
}

void ExpectNothingSettled(const BidirectionalSearch& search, VertexId n) {
  for (VertexId x = 0; x < n; ++x) {
    ASSERT_EQ(search.Depth(0, x), kUnreachable) << "x=" << x;
    ASSERT_EQ(search.Depth(1, x), kUnreachable) << "x=" << x;
  }
}

// Replays one Bi-BFS run with every expansion under rule A
// (kMeetsAfterFirst), against the same run with full expansions: the
// scans, meet set and meet edges are ExpandLevel's; the levels before the
// meeting one are whole, and the meeting one holds the vertices the full
// expansion pushed up to its first meet vertex, then only the later meet
// vertices; both reverse walks emit and scan the same, and Reset() leaves
// no vertex settled on either side. Rule B (ExpandToFirstMeet) on the same
// sides meets at the BFS distance with one meet vertex, and Reset() is
// clean after it too.
TEST(BidirectionalSearchTest, MeetRulesSettleOnlyWhatTheAnswerReads) {
  for (int family = 0; family < 3; ++family) {
    const Graph g = FamilyGraph(family);
    const VertexId n = g.NumVertices();
    Rng rng(700 + family);
    for (const bool any_blocked : {false, true}) {
      const std::vector<VertexId> blocked =
          any_blocked ? SomeBlocked(g, &rng) : std::vector<VertexId>{};
      const Graph searched = testing::WithoutVertices(g, blocked);
      BidirectionalSearch full(g, blocked);
      BidirectionalSearch fair(g, blocked);
      BidirectionalSearch first(g, blocked);
      size_t met = 0;
      size_t cut_short = 0;  // meeting levels rule A left partial
      for (int query = 0; query < 60; ++query) {
        VertexId u = 0;
        VertexId v = 0;
        ASSERT_TRUE(PickPair(g, blocked, &rng, &u, &v));
        SCOPED_TRACE(::testing::Message() << "family " << family << " u=" << u
                                          << " v=" << v);
        const std::vector<int> sides = RecordSides(&full, u, v, &rng);
        for (BidirectionalSearch* search : {&full, &fair, &first}) {
          search->Reset();
          search->Seed(0, u);
          search->Seed(1, v);
        }
        uint32_t d[2] = {0, 0};
        for (size_t i = 0; i < sides.size(); ++i) {
          const int t = sides[i];
          const LevelScan want = full.ExpandLevel(t);
          const LevelScan got =
              fair.ExpandLevel(t, MeetRule::kMeetsAfterFirst);
          const LevelScan stopped = first.ExpandToFirstMeet(t);
          ++d[t];
          ASSERT_EQ(got.scanned, want.scanned);
          ASSERT_EQ(got.blocked, want.blocked);
          if (i + 1 < sides.size()) {
            ASSERT_EQ(stopped.scanned, want.scanned);
            ASSERT_EQ(stopped.blocked, want.blocked);
            const auto fair_level = fair.levels(t).Level(d[t]);
            const auto full_level = full.levels(t).Level(d[t]);
            ASSERT_TRUE(std::equal(fair_level.begin(), fair_level.end(),
                                   full_level.begin(), full_level.end()));
          } else {
            ASSERT_LE(stopped.scanned, want.scanned);
            ASSERT_LE(stopped.blocked, want.blocked);
          }
        }
        ASSERT_EQ(fair.meet_set(), full.meet_set());
        ASSERT_EQ(fair.meet_edges(), full.meet_edges());
        const uint32_t distance = BfsDistances(searched, u)[v];
        if (full.meet_set().empty()) {
          ASSERT_TRUE(first.meet_set().empty());
          ASSERT_EQ(distance, kUnreachable);
        } else {
          ++met;
          // The meeting level: the full one up to its first meet vertex,
          // then the rest of the meet set.
          const int t = sides.back();
          const LevelStack& full_levels = full.levels(t);
          const auto full_level =
              full_levels.Level(full_levels.NumLevels() - 1);
          const auto first_meet = std::find(
              full_level.begin(), full_level.end(), full.meet_set()[0]);
          ASSERT_NE(first_meet, full_level.end());
          std::vector<VertexId> want_level(full_level.begin(), first_meet + 1);
          want_level.insert(want_level.end(), full.meet_set().begin() + 1,
                            full.meet_set().end());
          const LevelStack& fair_levels = fair.levels(t);
          const auto fair_level =
              fair_levels.Level(fair_levels.NumLevels() - 1);
          ASSERT_EQ(std::vector<VertexId>(fair_level.begin(), fair_level.end()),
                    want_level);
          cut_short += want_level.size() < full_level.size();

          std::vector<Edge> want_edges;
          std::vector<Edge> got_edges;
          full.StartBackwardFromMeet(&want_edges);
          fair.StartBackwardFromMeet(&got_edges);
          for (int s = 0; s < 2; ++s) {
            ASSERT_EQ(fair.RunBackwardWalk(s, &got_edges),
                      full.RunBackwardWalk(s, &want_edges));
          }
          ASSERT_EQ(got_edges, want_edges);

          // Rule B: the same distance, from one meet vertex and one entry.
          ASSERT_EQ(sides.size(), distance);
          ASSERT_EQ(first.meet_set(),
                    std::vector<VertexId>{full.meet_set()[0]});
          ASSERT_EQ(first.meet_edges(),
                    std::vector<Edge>{full.meet_edges()[0]});
          ASSERT_EQ(first.Depth(0, first.meet_set()[0]) +
                        first.Depth(1, first.meet_set()[0]),
                    distance);
        }
        fair.Reset();
        ExpectNothingSettled(fair, n);
        first.Reset();
        ExpectNothingSettled(first, n);
      }
      EXPECT_GT(met, 0u);
      EXPECT_GT(cut_short, 0u);
    }
  }
}

// Elementwise minimum of BfsDistances over `sources`: the depths of a side
// seeded with all of them.
std::vector<uint32_t> MultiSourceDistances(
    const Graph& g, const std::vector<VertexId>& sources) {
  std::vector<uint32_t> dist(g.NumVertices(), kUnreachable);
  for (const VertexId s : sources) {
    const std::vector<uint32_t> from_s = BfsDistances(g, s);
    for (VertexId x = 0; x < g.NumVertices(); ++x) {
      dist[x] = std::min(dist[x], from_s[x]);
    }
  }
  return dist;
}

void SeedSides(BidirectionalSearch* search,
               const std::vector<VertexId>& seeds0, VertexId seed1) {
  search->Reset();
  for (const VertexId s : seeds0) search->Seed(0, s);
  search->Seed(1, seed1);
}

// The level scan reads ahead of its position in the level. Pins the edges
// of that look-ahead: levels shorter than it (1 to 3 vertices, and up to
// 10), levels holding degree-0 vertices and vertex n-1 (whose adjacency
// starts at its end), and a graph with no edges at all, whose adjacency
// may have no storage. Several seeds on side 0 put those vertices in one
// level. Full and kMeetsOnly expansions must scan, settle and meet
// exactly as a BFS says.
TEST(BidirectionalSearchTest, LookAheadEdgesScanExactly) {
  // Vertices 0..11 are connected; 12..15 have no edges.
  const Graph connected = Graph::FromEdges(
      16, {{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 5}, {3, 6}, {4, 7}, {5, 8},
           {6, 9}, {7, 10}, {8, 11}, {9, 10}, {10, 11}});
  const Graph edgeless = Graph::FromEdges(16, {});
  ASSERT_EQ(edgeless.NumEdges(), 0u);
  // Side 0's seeds, in level order: vertex n-1 and degree-0 vertices
  // first (short levels), or where the look-ahead reads them.
  const std::vector<VertexId> orders[2] = {
      {15, 12, 0, 13, 4, 14, 8, 2, 11, 6},
      {12, 0, 13, 15, 4, 14, 8, 2, 11, 6}};
  const VertexId seed1 = 10;
  size_t meets = 0;
  for (const Graph* g : {&connected, &edgeless}) {
    const VertexId n = g->NumVertices();
    const std::vector<uint32_t> bfs1 = BfsDistances(*g, seed1);
    for (const std::vector<VertexId>& order : orders) {
      for (size_t k = 1; k <= order.size(); ++k) {
        const std::vector<VertexId> seeds(order.begin(), order.begin() + k);
        const std::vector<uint32_t> bfs0 = MultiSourceDistances(*g, seeds);
        SCOPED_TRACE(::testing::Message() << "edges " << g->NumEdges()
                                          << " seeds " << k << " from "
                                          << order[0]);
        BidirectionalSearch full(*g);
        BidirectionalSearch last(*g);
        SeedSides(&full, seeds, seed1);
        full.ExpandLevel(1);  // so that side 0's expansions meet side 1
        for (uint32_t d = 0; full.levels(0).LevelSize(d) != 0; ++d) {
          uint64_t degree_sum = 0;
          for (const VertexId x : full.levels(0).Level(d)) {
            degree_sum += g->Degree(x);
          }
          // Replay `full` on `last` up to level d, then end with the last
          // expansion.
          SeedSides(&last, seeds, seed1);
          last.ExpandLevel(1);
          for (uint32_t i = 0; i < d; ++i) last.ExpandLevel(0);
          const size_t met_before = full.meet_set().size();
          const LevelScan got = last.ExpandLevel(0, MeetRule::kMeetsOnly);
          const LevelScan want = full.ExpandLevel(0);
          meets += full.meet_set().size() - met_before;
          ASSERT_EQ(want.scanned, degree_sum) << "level " << d;
          ASSERT_EQ(want.blocked, 0u);
          ASSERT_EQ(got.scanned, want.scanned);
          ASSERT_EQ(got.blocked, want.blocked);
          ExpectSideDepths(full, 0, bfs0, d + 1);
          ExpectSideDepths(full, 1, bfs1, 1);
          ASSERT_EQ(SortedMeetSet(full), SettledByBoth(full, n));
          ASSERT_EQ(last.meet_set(), full.meet_set());
          ASSERT_EQ(last.meet_edges(), full.meet_edges());
          // The last expansion's level is what it added to the meet set.
          const auto level = last.levels(0).Level(d + 1);
          ASSERT_EQ(std::vector<VertexId>(level.begin(), level.end()),
                    std::vector<VertexId>(full.meet_set().begin() + met_before,
                                          full.meet_set().end()));
        }
      }
    }
  }
  EXPECT_GT(meets, 0u);
}

}  // namespace
}  // namespace qbs
