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
#include "graph/graph_delta.h"
#include "graph/spg.h"
#include "util/epoch_array.h"

namespace qbs {

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

  // Answers SPG(u, v). Pairs whose label upper bound is <= 2 (landmark
  // endpoints and two neighbours of one landmark) resolve on a label-guided
  // fast path (ComputeLabelBound + an edge probe / common-neighbour
  // intersection) with zero search, reverse, or recover edge scans;
  // everything else computes the sketch internally and runs the guided
  // search. `stats`, if non-null, receives the per-query counters.
  // `certify`, if non-null, must be ComputeLabelBound(labeling, meta, u, v)
  // for this exact pair; callers that time the certify scan on its own
  // pass it in so it is not scanned twice.
  ShortestPathGraph Query(VertexId u, VertexId v, SearchStats* stats = nullptr,
                          const LabelBound* certify = nullptr);

  // As Query(), but with a caller-supplied sketch (exposed for tests and
  // phase microbenchmarks).
  ShortestPathGraph QueryWithSketch(VertexId u, VertexId v,
                                    const Sketch& sketch,
                                    SearchStats* stats = nullptr);

 private:
  // The label-certified d <= 2 fast path. `bound` is the pair's certify
  // bound, computed by Query() or handed in by the caller. Returns true
  // and fills *result (an exact SPG) when it certifies d(u, v) <= 2 (the
  // bound's du + dv is the length of a real path); the SPG is then a single edge probe or a
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

  // Expands side `t` of the bi-directional search on G⁻ by one level and
  // counts its search scans and the landmark edges sparsification spared.
  void ExpandLevel(int t, SearchStats* stats);

  // §4.3: prefer the side whose sketch depth guide d* is not yet met,
  // breaking ties toward the smaller traversed set.
  int PickSide(const Sketch& sketch, const uint32_t d[2]) const;

  // Serial identifying the current query's walk session for landmark r;
  // walk-mark slots holding it are "visited for r in this query".
  uint64_t WalkSerial(LandmarkIndex r);

  // Emits all edges of all landmark-free shortest paths from w to landmark
  // `r`, walking label distances down to 1 (recover search).
  void LabelWalk(VertexId w, LandmarkIndex r, SearchStats* stats);

  const Graph& g_;       // original graph (landmark adjacency for recovery)
  const Graph& gminus_;  // the sparsified graph G⁻ actually traversed
  const PathLabeling& labeling_;
  const MetaGraph& meta_;
  const DeltaCache& delta_;

  // Per-query scratch (epoch-reset), kept at capacity across queries; the
  // query hot path hashes nothing. The bi-directional search over G⁻, its
  // levels, meet set and reverse walk are the engine the Bi-BFS baseline
  // runs too (graph/frontier.h).
  BidirectionalSearch search_;
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
  std::vector<uint64_t> edge_keys_;  // its packed-key sort buffer
  Sketch sketch_scratch_;
  SketchScratch sketch_buffers_;
  // True while sketch_scratch_ holds a sketch whose meta-edge pass was
  // deferred; QueryWithSketch then completes it only if the recover search
  // actually runs (most queries never read the meta-edges).
  bool lazy_sketch_ = false;
};

// Materializes the sparsified graph G[V \ R]: same vertex ids, only the
// edges with neither endpoint a landmark.
Graph MakeSparsifiedGraph(const Graph& g, const PathLabeling& labeling);

// The sparsified graph of an edited graph, from the old one: `gminus` is
// MakeSparsifiedGraph(g, labeling) and `net` takes g to the edited graph.
// Only the edits with no landmark endpoint reach G⁻, and ApplyNetChanges
// splices exactly those, so the result equals MakeSparsifiedGraph on the
// edited graph without filtering all of its edges again.
Graph PatchSparsifiedGraph(const Graph& gminus, const NetChanges& net,
                           const PathLabeling& labeling);

}  // namespace qbs

#endif  // QBS_CORE_GUIDED_SEARCH_H_
