#include "graph/frontier.h"

#include "util/check.h"

namespace qbs {

BidirectionalSearch::BidirectionalSearch(const Graph& g) : g_(g) {
  // Depths stay below kOnPath - 1, clear of a masked kUnreachable.
  QBS_CHECK_LT(g.NumVertices(), kOnPath);
  depth_.assign(g.NumVertices(), SideDepths{{kUnreachable, kUnreachable}});
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
}

void BidirectionalSearch::Seed(int t, VertexId v) {
  QBS_DCHECK(levels_[t].NumLevels() == 1);
  depth_[v].side[t] = 0;
  levels_[t].Push(v);
}

uint64_t BidirectionalSearch::ExpandLevel(int t) {
  const int o = 1 - t;
  const uint32_t next_depth = static_cast<uint32_t>(levels_[t].NumLevels());
  // Open the next level first so the current level's bounds are frozen,
  // then iterate by index: Push may reallocate the flat buffer.
  levels_[t].BeginLevel();
  const size_t begin = levels_[t].LevelBegin(next_depth - 1);
  const size_t end = levels_[t].LevelEnd(next_depth - 1);
  uint64_t scanned = 0;
  for (size_t idx = begin; idx < end; ++idx) {
    const VertexId x = levels_[t].At(idx);
    scanned += g_.Degree(x);
    for (VertexId w : g_.Neighbors(x)) {
      SideDepths& dw = depth_[w];
      if (dw.side[t] != kUnreachable) continue;
      dw.side[t] = next_depth;
      levels_[t].Push(w);
      if (dw.side[o] != kUnreachable) meet_set_.push_back(w);
    }
  }
  level_scan_[t].push_back(scanned);
  return scanned;
}

void BidirectionalSearch::AddBackwardStart(int t, VertexId w) {
  uint32_t& slot = depth_[w].side[t];
  const uint32_t depth = slot;
  QBS_DCHECK(depth != kUnreachable);
  if ((depth & kOnPath) != 0) return;
  slot = depth | kOnPath;
  if (depth >= on_path_[t].size()) on_path_[t].resize(depth + 1);
  on_path_[t][depth].push_back(w);
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
  // own degrees. Both emit the same edges, and side t's reverse scans
  // never exceed its search scans.
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
      scanned += top_down;
      for (const VertexId w : marked) {
        for (const VertexId x : g_.Neighbors(w)) {
          if ((depth_[x].side[t] & ~kOnPath) != below) continue;
          edges->emplace_back(w, x);
          AddBackwardStart(t, x);  // x's bucket exists: `marked` stays put
        }
      }
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
