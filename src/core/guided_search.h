// Guided searching (Algorithm 4): answers SPG(u, v) by a sketch-guided
// bi-directional BFS on the sparsified graph G⁻ = G[V \ R], followed by a
// reverse search (paths avoiding landmarks, G⁻_uv) and/or a recover search
// (paths through landmarks, G^L_uv) according to Eq. 5:
//
//          ⎧ G^L_uv               if d_G⁻(u,v) > d⊤
//   G_uv = ⎨ G⁻_uv ∪ G^L_uv       if d_G⁻(u,v) = d⊤
//          ⎩ G⁻_uv                otherwise.
//
// G⁻ is still the graph searched, but it is stored as blocked slots rather
// than a second CSR: the BidirectionalSearch runs on G with the landmarks
// blocked, so it follows exactly G⁻'s paths and every scan counter reads
// in G⁻ entries. SearchStats::landmark_edges_skipped counts the blocked
// entries the search stepped over, the §6.5(1) effect.
//
// The search scans the meeting level once. The meeting expansion records
// its meet edges, so the reverse search starts one level below the meet
// set on that side. And once d[0] + d[1] + 1 = d⊤, the next expansion is
// the last one d⊤ allows: it settles only the meet set, unless a Z pair of
// its side reads the level it opens (d*_t > d[t]).
//
// The Z-pair test reads no label row in the common case. An anchor (r, σ)
// reads the side's level dm = min(σ−1, d[t]); when dm = σ−1 the test
// δ(w, r) + dm = σ is "w is adjacent to r", one bit of the index's shared
// LandmarkAdjacency. Only a side that stopped short of σ−1 (d[t] < σ−1)
// reads w's label entry for r.

#ifndef QBS_CORE_GUIDED_SEARCH_H_
#define QBS_CORE_GUIDED_SEARCH_H_

#include <cstdint>
#include <vector>

#include "core/delta_cache.h"
#include "core/labeling.h"
#include "core/landmark_adjacency.h"
#include "core/meta_graph.h"
#include "core/search_stats.h"
#include "core/sketch.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs {

// Executes guided searches against a fixed labelling scheme. Holds scratch
// state sized to the graph, so construct once and reuse; NOT thread-safe —
// use one searcher per thread.
class GuidedSearcher {
 public:
  // All referenced objects must outlive the searcher. The landmarks of
  // `labeling` are blocked in the searcher's scratch for its whole life,
  // so they must stay the same (edits change edges, never R). `delta` must
  // hold a segment for every edge of `meta` (DeltaCache::Build over the
  // same scheme): the recover search splices landmark-to-landmark segments
  // from it and never re-derives one. `adjacency` must hold the bits of
  // `g` and the landmarks of `labeling` (LandmarkAdjacency::Build, which
  // the index re-runs in place after every edit): the Z-pair test reads
  // it in place of labels.
  GuidedSearcher(const Graph& g, const PathLabeling& labeling,
                 const MetaGraph& meta, const DeltaCache& delta,
                 const LandmarkAdjacency& adjacency);

  // Answers SPG(u, v) at any distance: computes the sketch and runs the
  // guided search, then stages 2-3 build the SPG as Eq. 5 directs.
  // `stats`, if non-null, receives the per-query counters.
  // The caller wants edges only for a distance of at most `edges_within`
  // (0: distance only). A pair the search resolves beyond it returns right
  // after stage 1, with its exact distance and coverage and no edges; the
  // reverse and recover stages never run for it.
  ShortestPathGraph Query(VertexId u, VertexId v, SearchStats* stats = nullptr,
                          uint32_t edges_within = kUnreachable);

  // As Query(), but with a caller-supplied sketch (exposed for tests and
  // phase microbenchmarks).
  ShortestPathGraph QueryWithSketch(VertexId u, VertexId v,
                                    const Sketch& sketch,
                                    SearchStats* stats = nullptr,
                                    uint32_t edges_within = kUnreachable);

 private:
  // §4.3: prefer the side whose sketch depth guide d* is not yet met,
  // breaking ties toward the smaller traversed set.
  int PickSide(const Sketch& sketch, const uint32_t d[2]) const;

  // Emits all edges of all landmark-free shortest paths from w to landmark
  // `r`, walking label distances down to 1 (recover search). Landmarks
  // carry no label, so it never steps onto one; it counts G⁻ entries.
  void LabelWalk(VertexId w, LandmarkIndex r, SearchStats* stats);

  const Graph& g_;
  const PathLabeling& labeling_;
  const MetaGraph& meta_;
  const DeltaCache& delta_;
  const LandmarkAdjacency& adjacency_;

  // Per-query scratch, reset logically and kept at capacity across
  // queries; the query hot path hashes nothing. The bi-directional search
  // over G⁻ (G with the landmarks blocked), its levels, meet set and
  // reverse walk are the engine the Bi-BFS baseline runs too
  // (graph/frontier.h).
  BidirectionalSearch search_;
  // (landmark, vertex) visited marks for label walks: walk_mark_[v] holds
  // the serial of the last walk session that visited v. A query's session
  // for landmark r has serial walk_base_ + r + 1, and every query advances
  // walk_base_ by |R|, so serials are unique per (query, landmark) and
  // exceed every mark an earlier query left: clearing is O(1) per query,
  // and marks persist across the u-side and v-side walks of one landmark.
  std::vector<uint64_t> walk_mark_;
  uint64_t walk_base_ = 0;
  std::vector<VertexId> walk_stack_;  // LabelWalk DFS stack
  std::vector<Edge> edges_;  // accumulating answer
  std::vector<uint64_t> edge_keys_;  // its packed-key sort buffer
  Sketch sketch_scratch_;
  SketchScratch sketch_buffers_;
  // True while sketch_scratch_ holds a sketch whose meta-edge pass was
  // deferred; QueryWithSketch then completes it only if the recover search
  // actually runs (most queries never read the meta-edges).
  bool lazy_sketch_ = false;
};

}  // namespace qbs

#endif  // QBS_CORE_GUIDED_SEARCH_H_
