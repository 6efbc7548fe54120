// Guided searching (Algorithm 4): answers SPG(u, v) by a sketch-guided
// bi-directional BFS on the sparsified graph G⁻ = G[V \ R], followed by a
// reverse search (paths avoiding landmarks, G⁻_uv) and/or a recover search
// (paths through landmarks, G^L_uv) according to Eq. 5:
//
//          ⎧ G^L_uv               if d_G⁻(u,v) > d⊤
//   G_uv = ⎨ G⁻_uv ∪ G^L_uv       if d_G⁻(u,v) = d⊤
//          ⎩ G⁻_uv                otherwise.
//
// The sparsified graph G⁻ is materialized as its own CSR (as the paper
// does; MakeSparsifiedGraph, once per index): searches never touch edges
// incident to landmarks.
// SearchStats::landmark_edges_skipped reports how many adjacency entries
// sparsification removed from the traversal, the §6.5(1) effect.

#ifndef QBS_CORE_GUIDED_SEARCH_H_
#define QBS_CORE_GUIDED_SEARCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/delta_cache.h"
#include "core/labeling.h"
#include "core/meta_graph.h"
#include "core/search_stats.h"
#include "core/sketch.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/spg.h"
#include "util/epoch_array.h"

namespace qbs {

// Minimum sketch bound d⊤ for the mask-guided search machinery (refined
// budget + per-vertex lower-bound pruning) to engage. Short-budget
// searches expand a handful of small levels; the O(|R|) bound merge, its
// mask cache lines, and the per-frontier-vertex row checks would cost more
// than the scans they could save. Long budgets are where frontiers balloon
// and label rows genuinely discriminate.
inline constexpr uint32_t kMaskPruneMinBudget = 6;

// Executes guided searches against a fixed labelling scheme. Holds scratch
// state sized to the graph, so construct once and reuse; NOT thread-safe —
// use one searcher per thread.
class GuidedSearcher {
 public:
  // All referenced objects must outlive the searcher. `sparsified` is the
  // materialized G[V \ R] of `g` (MakeSparsifiedGraph), shared by every
  // searcher of one index. `delta` must hold a segment for every edge of
  // `meta` (DeltaCache::Build over the same scheme): the recover search
  // splices landmark-to-landmark segments from it and never re-derives one.
  GuidedSearcher(const Graph& g, const Graph& sparsified,
                 const PathLabeling& labeling, const MetaGraph& meta,
                 const DeltaCache& delta);

  // Answers SPG(u, v). When the labelling carries bit-parallel masks, d <= 2
  // pairs resolve on a label-guided fast path (ComputeLabelBound + an edge
  // probe / common-neighbour intersection) with zero search, reverse, or
  // recover edge scans; everything else computes the sketch internally and
  // runs the guided search. `stats`, if non-null, receives the per-query
  // counters. `certify`, if non-null, must be
  // ComputeLabelBound(labeling, meta, u, v, /*refine_cutoff=*/2) for this
  // exact pair; callers that time the certify scan on its own pass it in
  // so it is not scanned twice.
  ShortestPathGraph Query(VertexId u, VertexId v, SearchStats* stats = nullptr,
                          const LabelBound* certify = nullptr);

  // As Query(), but with a caller-supplied sketch (exposed for tests and
  // phase microbenchmarks).
  ShortestPathGraph QueryWithSketch(VertexId u, VertexId v,
                                    const Sketch& sketch,
                                    SearchStats* stats = nullptr);

  // Enables/disables the mask-guided search pruning (on by default): the
  // refined label upper bound caps the bi-directional search budget below
  // d⊤, and frontier vertices whose depth plus mask-lifted label lower
  // bound to the far endpoint exceed that budget are not expanded. Off
  // reproduces the unpruned traversal exactly (the ablation baseline);
  // answers are identical either way.
  void set_mask_prune(bool enabled) { mask_prune_ = enabled; }

 private:
  // The label-certified d <= 2 fast path. `bound` is the pair's certify
  // bound (refine_cutoff 2), computed by Query() or handed in by the
  // caller. Returns true and fills *result (an exact SPG) when it
  // certifies d(u, v) <= 2; the SPG is then a single edge probe or a
  // sorted-adjacency intersection away — no sketch, search, reverse, or
  // recover work at all. Returns false — leaving *result untouched — when
  // the labels cannot certify it (the guided search then resolves the
  // pair, still recover-free when the distance turns out <= 2).
  bool TryLabelFastPath(VertexId u, VertexId v, const LabelBound& bound,
                        SearchStats* stats, ShortestPathGraph* result);

  // Fills result->edges with the exact SPG of a pair KNOWN to be at
  // distance 1 or 2 (direct edge, or one (u,w) + (w,v) pair per common
  // neighbour w). Returns {landmark witnesses, total witnesses} of the
  // distance-2 intersection ({0, 0} for distance 1) so callers can
  // classify coverage.
  std::pair<size_t, size_t> EmitShortSpgEdges(VertexId u, VertexId v,
                                              uint32_t distance,
                                              SearchStats* stats,
                                              ShortestPathGraph* result);

  // Expands side `t` of the bi-directional search by one level; appends
  // newly met vertices (already settled by the other side) to meet_set_.
  void ExpandLevel(int t, SearchStats* stats);

  // §4.3: prefer the side whose sketch depth guide d* is not yet met,
  // breaking ties toward the smaller traversed set.
  int PickSide(const Sketch& sketch, const uint32_t d[2]) const;

  // Marks `w` as on-path: a start of the backward walk on side t.
  void AddBackwardStart(int t, VertexId w);

  // True iff the label rows of x and `other` certify d_G(x, other) >
  // threshold: max over shared landmarks of |δ_x - δ_other|, lifted by one
  // where a bit-parallel mask witness pins a selected neighbour's exact
  // distances (BpMaskLowerLift). One O(|R|) row scan; masks are only read
  // for landmarks sitting exactly at the threshold.
  bool LabelLowerBoundExceeds(VertexId x, VertexId other,
                              uint32_t threshold) const;

  // Serial identifying the current query's walk session for landmark r;
  // walk-mark slots holding it are "visited for r in this query".
  uint64_t WalkSerial(LandmarkIndex r);

  // Emits all edges of all shortest chains from the registered start
  // vertices back to the side-t endpoint, following depth_[t] levels
  // downward (reverse search; also used to splice Z vertices into paths).
  void RunBackwardWalk(int t, SearchStats* stats);

  // Emits all edges of all landmark-free shortest paths from w to landmark
  // `r`, walking label distances down to 1 (recover search).
  void LabelWalk(VertexId w, LandmarkIndex r, SearchStats* stats);

  const Graph& g_;       // original graph (landmark adjacency for recovery)
  const Graph& gminus_;  // the sparsified graph G⁻ actually traversed
  const PathLabeling& labeling_;
  const MetaGraph& meta_;
  const DeltaCache& delta_;

  // Per-query scratch (epoch-reset). All traversal state lives in flat
  // reusable buffers from the shared substrate (graph/frontier.h): BFS
  // levels are contiguous spans of one buffer per side, the reverse search
  // walks (depth, vertex) start pairs through two flat buffers, and the
  // recover-search visited set is a serial-stamped array — no per-query
  // allocation and no hashing on the query hot path.
  EpochArray<uint32_t> depth_[2];
  EpochArray<uint8_t> back_mark_[2];
  LevelStack levels_[2];  // flat BFS levels per side
  // Level-crossing edges (x at level L, w at level L+1), recorded while the
  // forward expansion scans them anyway. The reverse search then replays
  // these lists downward instead of re-scanning walk-vertex adjacencies
  // with random depth lookups: every parent of an on-path vertex is here.
  LevelBuffer<std::pair<VertexId, VertexId>> crossing_[2];
  std::vector<VertexId> meet_set_;
  // (landmark, vertex) visited marks for label walks: walk_mark_[v] holds
  // the serial of the last walk session that visited v; sessions are
  // per-(query, landmark) via walk_session_, so clearing is O(1) per query
  // and marks persist across the u-side and v-side walks of one landmark.
  std::vector<uint64_t> walk_mark_;
  EpochArray<uint64_t> walk_session_;  // landmark -> session serial
  uint64_t walk_serial_ = 0;
  std::vector<VertexId> walk_stack_;  // LabelWalk DFS stack
  std::vector<VertexId> common_scratch_;  // fast-path common neighbours
  std::vector<Edge> edges_;  // accumulating answer
  Sketch sketch_scratch_;
  SketchScratch sketch_buffers_;
  // True while sketch_scratch_ holds a sketch whose meta-edge sweep was
  // deferred; QueryWithSketch then completes it only if the recover search
  // actually runs (most queries never read the meta-edges).
  bool lazy_sketch_ = false;

  // Mask-guided search pruning (see set_mask_prune). query_bound_ holds the
  // fully refined label bound Query() computed for the pair now in flight;
  // have_query_bound_ is the handoff flag to QueryWithSketch (mirroring
  // lazy_sketch_), so direct QueryWithSketch callers never see stale
  // bounds. prune_other_/prune_budget_ parameterize the frontier prune
  // while the stage-1 search runs (ExpandLevel derives each level's
  // threshold as budget - depth).
  bool mask_prune_ = true;
  LabelBound query_bound_;
  bool have_query_bound_ = false;
  bool prune_active_ = false;
  VertexId prune_other_[2] = {0, 0};  // far endpoint per search side
  uint32_t prune_budget_ = kUnreachable;
};

// Materializes the sparsified graph G[V \ R]: same vertex ids, only the
// edges with neither endpoint a landmark.
Graph MakeSparsifiedGraph(const Graph& g, const PathLabeling& labeling);

}  // namespace qbs

#endif  // QBS_CORE_GUIDED_SEARCH_H_
