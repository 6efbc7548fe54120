// The shared traversal substrate: flat reusable frontier buffers, scratch
// for pruned rooted BFSs, and the one bidirectional level search behind
// both SPG searches.
//
//  1. Flat frontiers. A BFS level is a contiguous span of a single reusable
//     buffer (LevelStack), so per-level allocation disappears and a "how
//     much did this side traverse" question is a pointer subtraction.
//
//  2. One bidirectional search (BidirectionalSearch). QbS's guided search
//     (Algorithm 4) is the Bi-BFS baseline (§6.1) run on G⁻ with a sketch
//     choosing the side, so both hold this engine and keep only their own
//     side rule: level expansion, the meet set and the reverse walk that
//     recovers every shortest path are the same code. The walk takes, per
//     level, the cheaper of its top-down and bottom-up exact scans — a
//     direction choice decided by exact costs instead of a ratio.
//
// The per-landmark labelling BFS (core/labeling.cc) keeps its own
// direction-optimizing traversal; BfsDistances (graph/bfs.h) is the plain
// reference they are all checked against.

#ifndef QBS_GRAPH_FRONTIER_H_
#define QBS_GRAPH_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"

namespace qbs {

// BFS levels: one contiguous span of vertices per level, stored
// back-to-back in one buffer. BeginLevel() opens a new level; Push()
// appends to it. Iterate a level by index (LevelBegin / LevelEnd + At)
// when pushing into the next level of the same buffer, since Push may
// reallocate it.
class LevelStack {
 public:
  void Clear() {
    items_.clear();
    offsets_.clear();
  }
  void BeginLevel() { offsets_.push_back(items_.size()); }
  void Push(VertexId v) { items_.push_back(v); }

  size_t NumLevels() const { return offsets_.size(); }
  size_t LevelBegin(size_t level) const { return offsets_[level]; }
  size_t LevelEnd(size_t level) const {
    return level + 1 < offsets_.size() ? offsets_[level + 1] : items_.size();
  }
  size_t LevelSize(size_t level) const {
    return LevelEnd(level) - LevelBegin(level);
  }
  VertexId At(size_t index) const { return items_[index]; }

  // Stable only until the next Push into this buffer.
  std::span<const VertexId> Level(size_t level) const {
    return {items_.data() + LevelBegin(level),
            items_.data() + LevelEnd(level)};
  }

  // Total vertices across all levels — the "traversed so far" volume.
  size_t TotalSize() const { return items_.size(); }

 private:
  std::vector<VertexId> items_;
  std::vector<size_t> offsets_;
};

// Scratch for repeated rooted traversals that cannot direction-switch
// because every visit runs a per-vertex pruning decision (the PPL-family
// pruned BFS): a depth map plus the flat visit queue. The queue doubles as
// the touched list, so the reset between roots is O(visited), not O(|V|).
struct RootedBfsScratch {
  std::vector<uint32_t> depth;  // kUnreachable = unvisited
  std::vector<VertexId> queue;

  void Prepare(VertexId n) {
    depth.assign(n, kUnreachable);
    queue.clear();
    queue.reserve(n);
  }

  void ResetVisited() {
    for (VertexId v : queue) depth[v] = kUnreachable;
    queue.clear();
  }
};

// Bidirectional level-synchronous BFS between two endpoints over one graph,
// plus the reverse walk that emits every shortest path between them. Side
// 0 grows from the first endpoint, side 1 from the second; the caller picks
// which side each ExpandLevel advances and when to stop. Holds scratch
// sized to the graph (construct once, Reset() per query; the per-query
// cost is O(vertices touched), not O(|V|)). NOT thread-safe.
class BidirectionalSearch {
 public:
  // `g` must outlive the search and have fewer than 2^31 vertices.
  explicit BidirectionalSearch(const Graph& g);

  // Forgets the previous query: both sides are left with an open, empty
  // level 0 and the meet set is empty.
  void Reset();

  // Puts `v` at depth 0 of side t. Call after Reset(), before expanding t.
  void Seed(int t, VertexId v);

  // Expands side t's deepest level by one BFS step: every unvisited
  // neighbour joins the next level, and those already settled by the other
  // side are appended to meet_set(). Returns the edges it scanned (Σ deg
  // over the expanded level), which the reverse walk also keeps.
  uint64_t ExpandLevel(int t);

  // Marks `w` (reached by side t) as lying on a shortest path: the reverse
  // walk of side t starts from it. Idempotent.
  void AddBackwardStart(int t, VertexId w);

  // Appends to *edges every edge of every shortest chain from the side-t
  // backward starts down to side t's endpoint, one level at a time from
  // the deepest, each level from whichever side is cheaper to scan. Every
  // start must sit on a level side t has reached by ExpandLevel.
  // Returns the edges it scanned, never more than side t's ExpandLevel
  // calls scanned.
  uint64_t RunBackwardWalk(int t, std::vector<Edge>* edges);

  // Side t's depth of v, or kUnreachable if side t has not reached it.
  uint32_t Depth(int t, VertexId v) const {
    const uint32_t depth = depth_[v].side[t];
    return depth == kUnreachable ? depth : depth & ~kOnPath;
  }
  const LevelStack& levels(int t) const { return levels_[t]; }
  // Vertices an expansion settled that the other side had settled before,
  // in the order the expansions met them.
  const std::vector<VertexId>& meet_set() const { return meet_set_; }

 private:
  // High bit of a side's depth: the vertex is on a shortest path. Levels
  // never reach it, and unreached sides (kUnreachable) never equal a
  // marked or unmarked level.
  static constexpr uint32_t kOnPath = 1u << 31;

  // One vertex's level on each side, kUnreachable where that side has not
  // reached it, with kOnPath set once side t's reverse walk puts the
  // vertex on a shortest path.
  struct SideDepths {
    uint32_t side[2];
  };

  const Graph& g_;
  // depth_ holds both sides' SideDepths of each vertex in one 8-byte slot,
  // so settling a vertex and testing it for a meet is one random access.
  // Every vertex outside levels_ reads {kUnreachable, kUnreachable}, so
  // Reset() clears just the listed ones. on_path_[t][L] lists side t's on-path vertices at level L, and
  // level_scan_[t][L] is the number of edges the expansion of level L
  // scanned: the exact cost of walking back into level L bottom-up.
  std::vector<SideDepths> depth_;
  LevelStack levels_[2];
  std::vector<uint64_t> level_scan_[2];
  std::vector<std::vector<VertexId>> on_path_[2];
  std::vector<VertexId> meet_set_;
};

}  // namespace qbs

#endif  // QBS_GRAPH_FRONTIER_H_
