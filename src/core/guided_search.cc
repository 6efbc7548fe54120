#include "core/guided_search.h"

#include <algorithm>

#include "util/check.h"

namespace qbs {

GuidedSearcher::GuidedSearcher(const Graph& g, const PathLabeling& labeling,
                               const MetaGraph& meta, const DeltaCache& delta)
    : g_(g),
      labeling_(labeling),
      meta_(meta),
      delta_(delta),
      search_(g, labeling.landmarks()) {
  QBS_CHECK_EQ(g.NumVertices(), labeling.num_vertices());
  QBS_CHECK(meta.finalized());
  walk_mark_.assign(g.NumVertices(), 0);
  walk_session_.Resize(labeling.num_landmarks(), 0);
}

ShortestPathGraph GuidedSearcher::Query(VertexId u, VertexId v,
                                        SearchStats* stats,
                                        uint32_t edges_within) {
  ComputeSketchInto(labeling_, meta_, u, v, &sketch_scratch_,
                    &sketch_buffers_, /*with_meta_edges=*/false);
  lazy_sketch_ = true;
  return QueryWithSketch(u, v, sketch_scratch_, stats, edges_within);
}

int GuidedSearcher::PickSide(const Sketch& sketch, const uint32_t d[2]) const {
  const bool want_u = sketch.d_star_u > d[0];
  const bool want_v = sketch.d_star_v > d[1];
  if (want_u != want_v) return want_u ? 0 : 1;
  // Tie: expand the side that has traversed less so far. Flat levels make
  // this a buffer-length read instead of a per-level sum.
  return search_.levels(0).TotalSize() <= search_.levels(1).TotalSize()
             ? 0
             : 1;
}

uint64_t GuidedSearcher::WalkSerial(LandmarkIndex r) {
  if (!walk_session_.IsSet(r)) walk_session_.Set(r, ++walk_serial_);
  return walk_session_.Get(r);
}

void GuidedSearcher::LabelWalk(VertexId w, LandmarkIndex r,
                               SearchStats* stats) {
  const uint64_t serial = WalkSerial(r);
  if (walk_mark_[w] == serial) return;
  walk_mark_[w] = serial;
  const VertexId target = labeling_.LandmarkVertex(r);
  walk_stack_.clear();
  walk_stack_.push_back(w);
  while (!walk_stack_.empty()) {
    const VertexId x = walk_stack_.back();
    walk_stack_.pop_back();
    const DistT dx = labeling_.Get(x, r);
    QBS_DCHECK(dx != kInfDist && dx > 0);
    if (dx == 1) {
      edges_.emplace_back(x, target);
      continue;
    }
    uint64_t landmark_entries = 0;
    for (VertexId y : g_.Neighbors(x)) {
      const DistT dy = labeling_.Get(y, r);
      if (dy != dx - 1) {
        // Only a kInfDist entry can be a landmark's empty label.
        landmark_entries += dy == kInfDist && labeling_.IsLandmark(y);
        continue;
      }
      edges_.emplace_back(x, y);
      if (walk_mark_[y] != serial) {
        walk_mark_[y] = serial;
        walk_stack_.push_back(y);
      }
    }
    stats->edges_scanned_recover += g_.Degree(x) - landmark_entries;
  }
}

ShortestPathGraph GuidedSearcher::QueryWithSketch(VertexId u, VertexId v,
                                                  const Sketch& sketch,
                                                  SearchStats* stats,
                                                  uint32_t edges_within) {
  QBS_CHECK_LT(u, g_.NumVertices());
  QBS_CHECK_LT(v, g_.NumVertices());
  const bool lazy_sketch = lazy_sketch_;
  lazy_sketch_ = false;
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->d_top = sketch.d_top;

  ShortestPathGraph result;
  result.u = u;
  result.v = v;
  if (u == v) {
    result.distance = 0;
    stats->coverage = PairCoverage::kNoneThroughLandmarks;
    return result;
  }

  // Reset per-query scratch (buffers are reused; only logical clears).
  search_.Reset();
  walk_session_.Reset();
  edges_.clear();

  const bool u_lm = labeling_.IsLandmark(u);
  const bool v_lm = labeling_.IsLandmark(v);
  if (!u_lm) search_.Seed(0, u);
  if (!v_lm) search_.Seed(1, v);

  // Stage 1: sketch-guided bi-directional search on G⁻. A landmark endpoint
  // is blocked, not in G⁻, so the search is skipped entirely in that case
  // (every shortest path then passes through a landmark and the recover
  // search reconstructs all of them).
  uint32_t d[2] = {0, 0};
  bool meet = false;
  if (!u_lm && !v_lm) {
    // Search budget: meets beyond d⊤ cannot change the answer.
    const uint32_t budget = sketch.d_top;
    const bool bounded = budget != kUnreachable;
    while (!bounded || d[0] + d[1] < budget) {
      if (search_.levels(0).LevelSize(d[0]) == 0 ||
          search_.levels(1).LevelSize(d[1]) == 0) {
        break;  // G⁻ exhausted on one side: d_G⁻(u, v) = ∞.
      }
      const int t = PickSide(sketch, d);
      const LevelScan scan = search_.ExpandLevel(t);
      stats->edges_scanned_search += scan.scanned;
      stats->landmark_edges_skipped += scan.blocked;
      ++d[t];
      if (!search_.meet_set().empty()) {
        meet = true;
        break;
      }
    }
  }

  const uint32_t d_minus = meet ? d[0] + d[1] : kUnreachable;
  stats->d_sparsified = d_minus;
  result.distance = std::min(d_minus, sketch.d_top);
  if (result.distance == kUnreachable) {
    stats->coverage = PairCoverage::kDisconnected;
    return result;  // disconnected
  }
  if (d_minus < sketch.d_top) {
    stats->coverage = PairCoverage::kNoneThroughLandmarks;
  } else if (d_minus == sketch.d_top) {
    stats->coverage = PairCoverage::kSomeThroughLandmarks;
  } else {
    stats->coverage = PairCoverage::kAllThroughLandmarks;
  }
  // Eq. 5 has fixed the distance; everything below only builds edges.
  if (result.distance > edges_within) return result;

  // Stage 2: reverse search (G⁻_uv) — runs iff the frontiers met, i.e.
  // d_G⁻(u, v) <= d⊤. Every shortest u–v path in G⁻ crosses the meeting
  // level at a vertex of the meet set, so walking depth levels backwards
  // from the meet set on both sides emits exactly G⁻_uv.
  if (meet) {
    for (const VertexId m : search_.meet_set()) {
      QBS_DCHECK(search_.Depth(0, m) + search_.Depth(1, m) == d_minus);
      search_.AddBackwardStart(0, m);
      search_.AddBackwardStart(1, m);
    }
  }

  // Stage 3: recover search (G^L_uv) — runs iff d⊤ realizes the distance.
  if (sketch.d_top == result.distance) {
    // (a) Landmark-to-landmark segments for every sketch meta-edge, spliced
    // from Δ. A deferred meta-edge pass is completed here, now that the
    // recover search is known to run (`sketch` aliases sketch_scratch_ on
    // this path). Sketch meta-edges are edges of meta_.Edges(), which is
    // exactly what Δ was built from, so every lookup hits.
    if (lazy_sketch) {
      ComputeSketchMetaEdges(meta_, &sketch_scratch_, &sketch_buffers_);
    }
    for (const MetaEdge& e : sketch.meta_edges) {
      const std::vector<Edge>* segment = delta_.Lookup(e.a, e.b);
      QBS_CHECK(segment != nullptr);
      ++stats->delta_cache_hits;
      edges_.insert(edges_.end(), segment->begin(), segment->end());
    }
    // (b) Z pairs (Lines 19-23): for each sketch anchor (r, t), the
    // on-path vertices w closest to r that the side-t search discovered,
    // at depth dm = min(σ−1, d_t) with δ_{w,r} + dm = σ. Each contributes
    // a label walk w → r (the part beyond the search horizon) and a
    // backward walk w → t (the part inside it).
    for (int t = 0; t < 2; ++t) {
      const auto& anchors = t == 0 ? sketch.u_anchors : sketch.v_anchors;
      for (const SketchAnchor& anchor : anchors) {
        if (anchor.delta == 0) continue;  // endpoint is the landmark itself
        const uint32_t sigma = anchor.delta;
        const uint32_t dm = std::min(sigma - 1, d[t]);
        QBS_DCHECK(dm < search_.levels(t).NumLevels());
        for (const VertexId w : search_.levels(t).Level(dm)) {
          const DistT dwr = labeling_.Get(w, anchor.landmark);
          if (dwr == kInfDist || dwr + dm != sigma) continue;
          LabelWalk(w, anchor.landmark, stats);
          search_.AddBackwardStart(t, w);
        }
      }
    }
  }

  // Backward walks emit both the reverse-search paths and the endpoint
  // sides of recovered paths, sharing marks so overlapping parts are
  // walked once (§4.3: "the search for parts of shortest paths that have
  // already been found in the reversed search can be skipped").
  for (int t = 0; t < 2; ++t) {
    stats->edges_scanned_reverse += search_.RunBackwardWalk(t, &edges_);
  }

  // edges_ and edge_keys_ keep their high-water capacity across queries;
  // the answer is one exact-sized allocation.
  result.AssignNormalized(edges_, &edge_keys_);
  return result;
}

}  // namespace qbs
