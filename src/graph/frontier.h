// The shared traversal substrate: flat reusable frontier buffers and the
// one bidirectional level search behind both SPG searches.
//
//  1. Flat frontiers. A BFS level is a contiguous span of a single reusable
//     buffer (LevelStack), so per-level allocation disappears and a "how
//     much did this side traverse" question is a pointer subtraction.
//
//  2. One bidirectional search (BidirectionalSearch). QbS's guided search
//     (Algorithm 4) is the Bi-BFS baseline (§6.1) run on G⁻ with a sketch
//     choosing the side, so both hold this engine and keep only their own
//     side rule: level expansion, the meet set and the reverse walk that
//     recovers every shortest path are the same code. The meeting
//     expansion records its meet edges (x, m) as it scans, so the walk
//     starts one level below the meet set on the side that met and never
//     re-scans the meeting level. Every meet vertex one expansion finds
//     realizes the same distance, and after the meet only the meet set is
//     read, so the meeting expansion settles no more than that:
//      - rule A (MeetRule::kMeetsAfterFirst): after its first meet vertex
//        an expansion settles only meet vertices. Bi-BFS expands this way
//        throughout, the guided search wherever no Z pair can read the
//        new level;
//      - an expansion known to be the last one whose level a Z pair never
//        reads (the guided search's d⊤ allows no other) settles only the
//        meet set (MeetRule::kMeetsOnly);
//      - rule B (ExpandToFirstMeet): a caller that wants no edges at the
//        distance it is about to reach returns at the first meet vertex.
//     The walk takes, per level, the cheaper of its top-down and bottom-up
//     exact scans — a direction choice decided by exact costs instead of
//     a ratio. The level scan prefetches a few positions ahead (each
//     vertex's CSR offset, then its first adjacency line), so one vertex's
//     chain of misses overlaps the next ones' without changing what it
//     scans. Both engines hand the answer edges to
//     ShortestPathGraph::AssignNormalized, whose canonical order is an LSD
//     radix sort over the bits the ids use (std::sort below a few dozen
//     edges).
//
//  3. Blocked vertices. G⁻ = G[V \ R] is searched inside G: the
//     landmarks' depth slots hold a sentinel no side ever settles.
//
// The labelling's one multi-landmark BFS (core/labeling.cc) keeps its own
// bit-lane push/pull traversal, and PPL's pruned BFS (baselines/ppl.cc)
// its own queue; BfsDistances (graph/bfs.h) is the plain reference they
// are all checked against.

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

// What one ExpandLevel inspected: `scanned` adjacency entries into
// unblocked vertices (the searched subgraph's entries), and `blocked`
// entries into blocked vertices, skipped.
struct LevelScan {
  uint64_t scanned = 0;
  uint64_t blocked = 0;
};

// What an expansion does with a newly reached vertex once it has met the
// other side. Every rule scans the same entries and records the same meet
// set and meet edges; they differ only in which other vertices join the
// new level.
enum class MeetRule {
  // Every newly reached vertex joins the new level.
  kFull,
  // As kFull up to the expansion's first meet vertex; after it, only meet
  // vertices join. For an expansion after whose meet nothing reads the
  // rest of the new level.
  kMeetsAfterFirst,
  // Only meet vertices join: for an expansion after which nothing reads
  // the new level except through the meet set.
  kMeetsOnly,
};

// Bidirectional level-synchronous BFS between two endpoints over the
// subgraph of one graph induced by its unblocked vertices, plus the
// reverse walk that emits every shortest path between them. Side 0 grows
// from the first endpoint, side 1 from the second; the caller picks which
// side each ExpandLevel advances and when to stop. Holds scratch sized to
// the graph (construct once, Reset() per query; the per-query cost is
// O(vertices touched), not O(|V|)). NOT thread-safe.
class BidirectionalSearch {
 public:
  // `g` must outlive the search and have fewer than 2^31 - 1 vertices.
  // The `blocked` vertices are never settled, entered or walked through;
  // no endpoint may be one of them.
  explicit BidirectionalSearch(const Graph& g,
                               std::span<const VertexId> blocked = {});

  // Forgets the previous query: both sides are left with an open, empty
  // level 0 and the meet set is empty.
  void Reset();

  // Puts `v` at depth 0 of side t. Call after Reset(), before expanding t.
  // Seeding side t again adds another vertex to its level 0.
  void Seed(int t, VertexId v);

  // Expands side t's deepest level by one BFS step: every unvisited,
  // unblocked neighbour the rule admits joins the next level, and those
  // already settled by the other side are appended to meet_set(). Every
  // scanned entry (x, m) into such a meet vertex m is appended to
  // meet_edges(). Returns the entries it scanned (Σ deg over the expanded
  // level, split into unblocked and blocked); the reverse walk keeps the
  // unblocked count.
  LevelScan ExpandLevel(int t, MeetRule rule = MeetRule::kFull);

  // ExpandLevel(t, MeetRule::kMeetsAfterFirst) that returns at the first
  // meet vertex, for a caller that reads only the distance: the meet set
  // and meet edges hold that one vertex and entry, and the LevelScan
  // counts the entries up to and including it. No reverse walk may follow.
  LevelScan ExpandToFirstMeet(int t);

  // Marks `w` (reached by side t) as lying on a shortest path: the reverse
  // walk of side t starts from it. Idempotent.
  void AddBackwardStart(int t, VertexId w);

  // Starts both reverse walks at the meet of a search that stopped after
  // its first meeting expansion, of side t: appends the meet edges to
  // *edges, starts side t's walk at their x's (one level below the meet
  // set) and side 1 - t's walk at the meet set.
  void StartBackwardFromMeet(std::vector<Edge>* edges);

  // Appends to *edges every edge of every shortest chain from the side-t
  // backward starts down to side t's endpoint, one level at a time from
  // the deepest, each level from whichever side is cheaper to scan. Every
  // start must sit on a level side t has reached by ExpandLevel.
  // Returns the unblocked entries it scanned, never more than side t's
  // ExpandLevel calls scanned.
  uint64_t RunBackwardWalk(int t, std::vector<Edge>* edges);

  // Side t's depth of v, or kUnreachable if side t has not reached it or
  // v is blocked.
  uint32_t Depth(int t, VertexId v) const {
    const uint32_t depth = depth_[v].side[t];
    return depth >= kBlocked ? kUnreachable : depth & ~kOnPath;
  }
  const LevelStack& levels(int t) const { return levels_[t]; }
  // Vertices an expansion settled that the other side had settled before,
  // in the order the expansions met them.
  const std::vector<VertexId>& meet_set() const { return meet_set_; }
  // Every entry (x, m) an expansion scanned from x on the level it
  // expanded into a vertex m of the meet set that expansion settled, in
  // scan order: each is an answer edge.
  const std::vector<Edge>& meet_edges() const { return meet_edges_; }

 private:
  // High bit of a side's depth: the vertex is on a shortest path. Levels
  // never reach it, and unreached sides (kUnreachable) never equal a
  // marked or unmarked level.
  static constexpr uint32_t kOnPath = 1u << 31;
  // Both sides' depth of a blocked vertex: not kUnreachable, so never
  // settled, and above every marked or unmarked level (< kOnPath - 2).
  static constexpr uint32_t kBlocked = kUnreachable - 1;

  // One vertex's level on each side, kUnreachable where that side has not
  // reached it, with kOnPath set once side t's reverse walk puts the
  // vertex on a shortest path.
  struct SideDepths {
    uint32_t side[2];
  };

  // ExpandLevel under kRule; with `stop_at_meet`, ExpandToFirstMeet.
  template <MeetRule kRule>
  LevelScan Expand(int t, bool stop_at_meet);

  const Graph& g_;
  // depth_ holds both sides' SideDepths of each vertex in one 8-byte slot,
  // so settling a vertex and testing it for a meet is one random access.
  // Every vertex outside levels_ reads {kUnreachable, kUnreachable}, or
  // {kBlocked, kBlocked} if blocked, so Reset() clears just the listed
  // ones. on_path_[t][L] lists side t's on-path vertices at level L, and
  // level_scan_[t][L] is the number of unblocked entries the expansion of
  // level L scanned: the exact cost of walking back into level L
  // bottom-up.
  std::vector<SideDepths> depth_;
  LevelStack levels_[2];
  std::vector<uint64_t> level_scan_[2];
  std::vector<std::vector<VertexId>> on_path_[2];
  std::vector<VertexId> meet_set_;
  std::vector<Edge> meet_edges_;
  int meet_side_ = 0;  // the side whose expansion first met
};

}  // namespace qbs

#endif  // QBS_GRAPH_FRONTIER_H_
