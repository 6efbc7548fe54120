// The shared traversal substrate: flat reusable frontier buffers, a dense
// visited bitmap, Beamer-style direction-optimizing BFS over the CSR, and
// the one bidirectional level search behind both SPG searches.
//
// Every breadth-first hot path in the library (per-landmark labelling
// construction, the BFS/Bi-BFS baselines, the guided search) runs on these
// primitives instead of ad-hoc vector-of-vector frontiers. The ideas:
//
//  1. Flat frontiers. A BFS level is a contiguous span of a single reusable
//     buffer (LevelStack), so per-level allocation disappears and a "how
//     much did this side traverse" question is a pointer subtraction.
//
//  2. Direction switching [Beamer, Asanović & Patterson, SC'12]. When the
//     frontier's outgoing edge volume grows past a fraction of the
//     unexplored edges (alpha), expanding it top-down would touch most of
//     the graph; switching to a bottom-up sweep — every unvisited vertex
//     scans its neighbours for a frontier parent and stops at the first
//     hit — turns the dense middle levels of a small-diameter network from
//     O(frontier edges) into roughly O(unvisited vertices). When the
//     frontier shrinks below |V| / beta the traversal drops back to
//     top-down. The complex networks the paper targets (Table 1) spend
//     almost all their edges in two or three dense levels, which is why
//     construction (one full BFS per landmark, Fig. 10) is the biggest
//     winner.
//
//  3. One bidirectional search (BidirectionalSearch). QbS's guided search
//     (Algorithm 4) is the Bi-BFS baseline (§6.1) run on G⁻ with a sketch
//     choosing the side, so both hold this engine and keep only their own
//     side rule: level expansion, the meet set and the reverse walk that
//     recovers every shortest path are the same code. The walk takes, per
//     level, the cheaper of its top-down and bottom-up exact scans — the
//     direction choice of idea 2, decided by exact costs instead of a
//     ratio.

#ifndef QBS_GRAPH_FRONTIER_H_
#define QBS_GRAPH_FRONTIER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "util/epoch_array.h"

namespace qbs {

// Dense bitset sized to the vertex space. Clear() is O(|V| / 64) — cheap
// enough to run once per bottom-up level, and never on the top-down path.
class Bitmap {
 public:
  void Resize(size_t n) { words_.assign((n + 63) / 64, 0); }
  void Clear() { std::fill(words_.begin(), words_.end(), 0ull); }

  void Set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }

 private:
  std::vector<uint64_t> words_;
};

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

// Direction-switching thresholds. The defaults are the conventional GAP /
// Beamer constants; the equivalence tests and the ablation bench override
// the mode outright instead of tuning these.
struct DirOptPolicy {
  // Go bottom-up when frontier edge volume > unexplored edges / alpha.
  uint32_t alpha = 15;
  // Return top-down when the frontier holds fewer than |V| / beta vertices.
  uint32_t beta = 18;
};

// The Beamer alpha/beta hysteresis itself, factored out of the traversals
// that share it (FrontierEngine and the per-landmark labelling BFS): the
// caller scouts the out-degree of every vertex it settles, and Step()
// consumes the scouted volume to pick the next level's direction.
class DirOptController {
 public:
  // `num_undirected_edges` = |E|; the unexplored-volume budget is the 2|E|
  // directed endpoints. Seed the root's degree via Scout() before the first
  // Step().
  DirOptController(const DirOptPolicy& policy, size_t num_vertices,
                   uint64_t num_undirected_edges)
      : policy_(policy),
        num_vertices_(num_vertices),
        edges_remaining_(2 * num_undirected_edges) {}

  // Accounts the out-degree of a newly settled vertex: the volume the
  // frontier would scan if the next level ran top-down.
  void Scout(uint64_t degree) { scout_count_ += degree; }

  // Picks the direction for the next level given the current frontier
  // size, consuming the scouted volume. Call exactly once per level.
  bool Step(size_t frontier_size) {
    if (!bottom_up_ &&
        scout_count_ > edges_remaining_ / policy_.alpha) {
      bottom_up_ = true;
    } else if (bottom_up_ && frontier_size < num_vertices_ / policy_.beta) {
      bottom_up_ = false;
    }
    edges_remaining_ -= scout_count_;
    scout_count_ = 0;
    return bottom_up_;
  }

 private:
  DirOptPolicy policy_;
  size_t num_vertices_;
  uint64_t edges_remaining_;
  uint64_t scout_count_ = 0;
  bool bottom_up_ = false;
};

enum class TraversalMode {
  kAuto,      // direction-optimizing (the default everywhere)
  kTopDown,   // classic level-synchronous push
  kBottomUp,  // pull every level (test/ablation only; slow on purpose)
};

struct FrontierStats {
  uint32_t levels = 0;
  uint32_t bottom_up_levels = 0;
  uint64_t edges_scanned = 0;
};

// Reusable scratch + driver for single-source (optionally depth-bounded)
// BFS distances. Construct once per thread and reuse: buffers are sized on
// first use and only grow. Not thread-safe.
class FrontierEngine {
 public:
  // Fills dist (resized to |V|, kUnreachable where not reached) with BFS
  // distances from `source`, truncated at `max_depth` (inclusive).
  void Distances(const Graph& g, VertexId source, uint32_t max_depth,
                 std::vector<uint32_t>* dist,
                 TraversalMode mode = TraversalMode::kAuto);

  const FrontierStats& stats() const { return stats_; }
  const DirOptPolicy& policy() const { return policy_; }
  void set_policy(const DirOptPolicy& policy) { policy_ = policy; }

 private:
  DirOptPolicy policy_;
  FrontierStats stats_;
  std::vector<VertexId> cur_, next_;
  Bitmap front_bits_;
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
    const uint32_t depth = depth_[t].Get(v);
    return depth == kUnreachable ? depth : depth & ~kOnPath;
  }
  const LevelStack& levels(int t) const { return levels_[t]; }
  // Vertices an expansion settled that the other side had settled before,
  // in the order the expansions met them.
  const std::vector<VertexId>& meet_set() const { return meet_set_; }

 private:
  // High bit of a depth_ slot: the vertex is on a shortest path. Levels
  // never reach it, and unset slots (kUnreachable) never equal a marked
  // or unmarked level.
  static constexpr uint32_t kOnPath = 1u << 31;

  const Graph& g_;
  // depth_[t] holds each vertex's side-t level, with kOnPath set once the
  // reverse walk puts the vertex on a shortest path, so one random access
  // reads both. on_path_[t][L] lists the on-path vertices at level L, and
  // level_scan_[t][L] is the number of edges the expansion of level L
  // scanned: the exact cost of walking back into level L bottom-up.
  EpochArray<uint32_t> depth_[2];
  LevelStack levels_[2];
  std::vector<uint64_t> level_scan_[2];
  std::vector<std::vector<VertexId>> on_path_[2];
  std::vector<VertexId> meet_set_;
};

}  // namespace qbs

#endif  // QBS_GRAPH_FRONTIER_H_
