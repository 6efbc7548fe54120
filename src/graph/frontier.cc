#include "graph/frontier.h"

#include "util/check.h"

namespace qbs {

BidirectionalSearch::BidirectionalSearch(const Graph& g,
                                         std::span<const VertexId> blocked)
    : g_(g) {
  // Depths stay below kOnPath - 2, clear of a masked kBlocked and a masked
  // kUnreachable.
  QBS_CHECK_LT(g.NumVertices(), kOnPath - 1);
  depth_.assign(g.NumVertices(), SideDepths{{kUnreachable, kUnreachable}});
  // Never in levels_, so Reset() never clears these.
  for (const VertexId b : blocked) {
    QBS_CHECK_LT(b, g.NumVertices());
    depth_[b] = SideDepths{{kBlocked, kBlocked}};
  }
}

void BidirectionalSearch::Reset() {
  for (int s = 0; s < 2; ++s) {
    // Every vertex a side reached sits in its levels.
    for (size_t i = 0; i < levels_[s].TotalSize(); ++i) {
      depth_[levels_[s].At(i)] = SideDepths{{kUnreachable, kUnreachable}};
    }
    levels_[s].Clear();
    levels_[s].BeginLevel();
    level_scan_[s].clear();
    for (std::vector<VertexId>& bucket : on_path_[s]) bucket.clear();
  }
  meet_set_.clear();
  meet_edges_.clear();
}

void BidirectionalSearch::Seed(int t, VertexId v) {
  QBS_DCHECK(levels_[t].NumLevels() == 1);
  QBS_DCHECK(depth_[v].side[t] != kBlocked);
  depth_[v].side[t] = 0;
  levels_[t].Push(v);
}

// Look-ahead of the level scan, in level positions. Each level vertex is a
// chain of dependent misses (CSR offset, adjacency line, depth slots) that
// the out-of-order window cannot overlap with the next vertex's. So the
// scan requests the offset kOffsetAhead positions ahead, and the first
// adjacency line kAdjacencyAhead positions ahead, by which time that
// vertex's offset has had kOffsetAhead - kAdjacencyAhead iterations to
// arrive. The distances only need to cover one miss, and a denser level
// only lengthens the iterations, so on denser graphs they are early rather
// than late: they are fixed, not tuned per graph.
constexpr size_t kOffsetAhead = 8;
constexpr size_t kAdjacencyAhead = 3;

template <MeetRule kRule>
LevelScan BidirectionalSearch::Expand(int t, bool stop_at_meet) {
  const int o = 1 - t;
  const uint32_t next_depth = static_cast<uint32_t>(levels_[t].NumLevels());
  // Open the next level first so the current level's bounds are frozen,
  // then iterate by index: Push may reallocate the flat buffer.
  levels_[t].BeginLevel();
  const size_t begin = levels_[t].LevelBegin(next_depth - 1);
  const size_t end = levels_[t].LevelEnd(next_depth - 1);
  const std::span<const uint64_t> off = g_.RawOffsets();
  const VertexId* const adj = g_.RawAdjacency().data();
  // Warm-up: the offsets the loop's first iterations read.
  for (size_t idx = begin; idx < end && idx < begin + kOffsetAhead; ++idx) {
    __builtin_prefetch(&off[levels_[t].At(idx)]);
  }
  LevelScan scan;
  uint64_t entries = 0;
  // Under kMeetsAfterFirst: this expansion has met, so only meet vertices
  // join the new level from here on.
  bool met = false;
  for (size_t idx = begin; idx < end; ++idx) {
    if (idx + kOffsetAhead < end) {
      __builtin_prefetch(&off[levels_[t].At(idx + kOffsetAhead)]);
    }
    if (idx + kAdjacencyAhead < end) {
      // May point one past the adjacency's end (a degree-0 vertex n-1):
      // a prefetch never faults.
      __builtin_prefetch(adj + off[levels_[t].At(idx + kAdjacencyAhead)]);
    }
    const VertexId x = levels_[t].At(idx);
    const std::span<const VertexId> neighbors = g_.Neighbors(x);
    entries += neighbors.size();
    for (const VertexId& w : neighbors) {
      SideDepths& dw = depth_[w];
      // The other side's depth first: it is rarely set. Blocked vertices
      // set it too.
      if (dw.side[o] != kUnreachable) {
        if (dw.side[t] == kUnreachable) {
          dw.side[t] = next_depth;
          levels_[t].Push(w);
          if (meet_set_.empty()) meet_side_ = t;
          meet_set_.push_back(w);
          if (stop_at_meet) {
            // Charge only the entries up to and including this one.
            entries -= static_cast<uint64_t>(neighbors.data() +
                                             neighbors.size() - (&w + 1));
            meet_edges_.emplace_back(x, w);
            scan.scanned = entries - scan.blocked;
            level_scan_[t].push_back(scan.scanned);
            return scan;
          }
          if constexpr (kRule == MeetRule::kMeetsAfterFirst) met = true;
        } else if (dw.side[t] != next_depth) {
          // Blocked, or met by an earlier expansion.
          scan.blocked += dw.side[t] == kBlocked;
          continue;
        }
        meet_edges_.emplace_back(x, w);
        continue;
      }
      if constexpr (kRule == MeetRule::kMeetsOnly) continue;
      if constexpr (kRule == MeetRule::kMeetsAfterFirst) {
        if (met) continue;
      }
      if (dw.side[t] != kUnreachable) continue;
      dw.side[t] = next_depth;
      levels_[t].Push(w);
    }
  }
  scan.scanned = entries - scan.blocked;
  level_scan_[t].push_back(scan.scanned);
  return scan;
}

LevelScan BidirectionalSearch::ExpandLevel(int t, MeetRule rule) {
  switch (rule) {
    case MeetRule::kFull:
      return Expand<MeetRule::kFull>(t, /*stop_at_meet=*/false);
    case MeetRule::kMeetsAfterFirst:
      return Expand<MeetRule::kMeetsAfterFirst>(t, /*stop_at_meet=*/false);
    case MeetRule::kMeetsOnly:
      break;
  }
  return Expand<MeetRule::kMeetsOnly>(t, /*stop_at_meet=*/false);
}

LevelScan BidirectionalSearch::ExpandToFirstMeet(int t) {
  return Expand<MeetRule::kMeetsAfterFirst>(t, /*stop_at_meet=*/true);
}

void BidirectionalSearch::AddBackwardStart(int t, VertexId w) {
  uint32_t& slot = depth_[w].side[t];
  const uint32_t depth = slot;
  QBS_DCHECK(depth < kBlocked);
  if ((depth & kOnPath) != 0) return;
  slot = depth | kOnPath;
  if (depth >= on_path_[t].size()) on_path_[t].resize(depth + 1);
  on_path_[t][depth].push_back(w);
}

void BidirectionalSearch::StartBackwardFromMeet(std::vector<Edge>* edges) {
  const int t = meet_side_;
  // The search stopped at its meeting expansion, so the sides' deepest
  // levels add up to the distance every meet vertex realizes.
  [[maybe_unused]] const uint32_t distance = static_cast<uint32_t>(
      levels_[0].NumLevels() + levels_[1].NumLevels() - 2);
  for (const VertexId m : meet_set_) {
    QBS_DCHECK(Depth(0, m) + Depth(1, m) == distance);
    AddBackwardStart(1 - t, m);
  }
  edges->insert(edges->end(), meet_edges_.begin(), meet_edges_.end());
  for (const Edge& e : meet_edges_) {
    QBS_DCHECK(Depth(t, e.u) + 1 == Depth(t, e.v));
    AddBackwardStart(t, e.u);
  }
}

uint64_t BidirectionalSearch::RunBackwardWalk(int t,
                                              std::vector<Edge>* edges) {
  // From the deepest level down. Level L's on-path set is complete once
  // level L+1 is done, and every edge from it to level L-1 is an answer
  // edge whose lower end is on-path too. Two exact scans find those edges:
  //  - top-down: the on-path vertices' own adjacency, keeping neighbours
  //    at depth L-1, for Σ deg over them;
  //  - bottom-up: all of level L-1's adjacency, keeping neighbours marked
  //    at L, for the level_scan_ its forward expansion already counted.
  // Each level takes the cheaper, so an on-path hub costs no more than
  // its parent level and a thin path through wide levels no more than its
  // own degrees. Both emit the same edges. Top-down's cost is bounded by
  // Σ deg including blocked entries, and is charged without them, like
  // level_scan_; so side t's reverse scans never exceed its search scans.
  uint64_t scanned = 0;
  for (size_t level = on_path_[t].size(); level-- > 1;) {
    const std::vector<VertexId>& marked = on_path_[t][level];
    if (marked.empty()) continue;
    const uint32_t below = static_cast<uint32_t>(level - 1);
    QBS_DCHECK(below < level_scan_[t].size());
    uint64_t top_down = 0;
    for (const VertexId w : marked) top_down += g_.Degree(w);
    const uint64_t bottom_up = level_scan_[t][below];
    if (top_down <= bottom_up) {
      uint64_t blocked = 0;
      for (const VertexId w : marked) {
        for (const VertexId x : g_.Neighbors(w)) {
          const uint32_t depth = depth_[x].side[t];
          if ((depth & ~kOnPath) != below) {
            blocked += depth == kBlocked;
            continue;
          }
          edges->emplace_back(w, x);
          AddBackwardStart(t, x);  // x's bucket exists: `marked` stays put
        }
      }
      scanned += top_down - blocked;
    } else {
      scanned += bottom_up;
      const uint32_t marked_depth = static_cast<uint32_t>(level) | kOnPath;
      for (const VertexId x : levels_[t].Level(below)) {
        bool on_path_child = false;
        for (const VertexId w : g_.Neighbors(x)) {
          if (depth_[w].side[t] != marked_depth) continue;
          edges->emplace_back(w, x);
          on_path_child = true;
        }
        if (on_path_child) AddBackwardStart(t, x);
      }
    }
  }
  return scanned;
}

}  // namespace qbs
