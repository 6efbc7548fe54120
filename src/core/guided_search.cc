#include "core/guided_search.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"

namespace qbs {

Graph MakeSparsifiedGraph(const Graph& g, const PathLabeling& labeling) {
  return g.WithoutEdgesAt(labeling.landmarks());
}

Graph PatchSparsifiedGraph(const Graph& gminus, const NetChanges& net,
                           const PathLabeling& labeling) {
  NetChanges kept;
  auto no_landmark = [&](const Edge& e) {
    return !labeling.IsLandmark(e.u) && !labeling.IsLandmark(e.v);
  };
  std::copy_if(net.inserts.begin(), net.inserts.end(),
               std::back_inserter(kept.inserts), no_landmark);
  std::copy_if(net.deletes.begin(), net.deletes.end(),
               std::back_inserter(kept.deletes), no_landmark);
  return ApplyNetChanges(gminus, kept);
}

GuidedSearcher::GuidedSearcher(const Graph& g, const Graph& sparsified,
                               const PathLabeling& labeling,
                               const MetaGraph& meta, const DeltaCache& delta)
    : g_(g), gminus_(sparsified), labeling_(labeling), meta_(meta),
      delta_(delta), search_(sparsified) {
  QBS_CHECK_EQ(g.NumVertices(), labeling.num_vertices());
  QBS_CHECK_EQ(sparsified.NumVertices(), g.NumVertices());
  QBS_CHECK(meta.finalized());
  walk_mark_.assign(g.NumVertices(), 0);
  walk_session_.Resize(labeling.num_landmarks(), 0);
}

ShortestPathGraph GuidedSearcher::Query(VertexId u, VertexId v,
                                        SearchStats* stats,
                                        const LabelBound* certify) {
  if (u != v) {
    // Certify bound: handed in by a caller that timed it separately, or one
    // fused row scan here. Certified pairs finish without a sketch.
    const LabelBound bound = certify != nullptr
                                 ? *certify
                                 : ComputeLabelBound(labeling_, meta_, u, v);
    ShortestPathGraph result;
    if (TryLabelFastPath(u, v, bound, stats, &result)) return result;
  }
  ComputeSketchInto(labeling_, meta_, u, v, &sketch_scratch_,
                    &sketch_buffers_, /*with_meta_edges=*/false);
  lazy_sketch_ = true;
  return QueryWithSketch(u, v, sketch_scratch_, stats);
}

std::pair<size_t, size_t> GuidedSearcher::EmitShortSpgEdges(
    VertexId u, VertexId v, uint32_t distance, SearchStats* stats,
    ShortestPathGraph* result) {
  result->edges.clear();
  if (distance == 1) {
    result->edges.emplace_back(u, v);
    result->Normalize();
    return {0, 0};
  }
  QBS_DCHECK(distance == 2);
  // Common-neighbour intersection over the sorted adjacency lists: every
  // shortest path of a distance-2 pair is u - w - v with w in N(u) ∩ N(v).
  // Skewed degrees (hub endpoints) binary-search the small list through
  // the big one; similar degrees linear-merge, clamped to the id range the
  // small list can reach — either way the cost tracks the smaller
  // neighbourhood, not the hub's.
  std::span<const VertexId> small = g_.Neighbors(u);
  std::span<const VertexId> big = g_.Neighbors(v);
  if (small.size() > big.size()) std::swap(small, big);
  common_scratch_.clear();
  if (!small.empty() && small.size() * 8 <= big.size()) {
    for (const VertexId w : small) {
      ++stats->edges_scanned_direct;
      if (std::binary_search(big.begin(), big.end(), w)) {
        common_scratch_.push_back(w);
      }
    }
  } else if (!small.empty()) {
    const auto* lo =
        std::lower_bound(big.data(), big.data() + big.size(), small.front());
    const auto* hi =
        std::upper_bound(lo, big.data() + big.size(), small.back());
    size_t iu = 0;
    while (iu < small.size() && lo != hi) {
      ++stats->edges_scanned_direct;
      if (small[iu] < *lo) {
        ++iu;
      } else if (*lo < small[iu]) {
        ++lo;
      } else {
        common_scratch_.push_back(small[iu]);
        ++iu;
        ++lo;
      }
    }
  }
  QBS_DCHECK(!common_scratch_.empty());  // distance 2 implies a witness
  result->edges.reserve(2 * common_scratch_.size());
  size_t landmark_witnesses = 0;
  for (const VertexId w : common_scratch_) {
    if (labeling_.IsLandmark(w)) ++landmark_witnesses;
    result->edges.emplace_back(u, w);
    result->edges.emplace_back(w, v);
  }
  result->Normalize();
  return {landmark_witnesses, common_scratch_.size()};
}

bool GuidedSearcher::TryLabelFastPath(VertexId u, VertexId v,
                                      const LabelBound& bound,
                                      SearchStats* stats,
                                      ShortestPathGraph* result) {
  QBS_CHECK_LT(u, g_.NumVertices());
  QBS_CHECK_LT(v, g_.NumVertices());
  if (stats != nullptr) stats->d_label_upper = bound.upper;
  if (bound.upper > 2) return false;  // not certified: run the guided search
  // upper == 0 would force u == v. upper == 1 only arises with a landmark
  // endpoint (virtual entry 0 + label 1) or an adjacent landmark pair.
  QBS_DCHECK(bound.upper >= 1);

  SearchStats local_stats;
  SearchStats* s = stats != nullptr ? stats : &local_stats;
  const bool endpoint_lm = labeling_.IsLandmark(u) || labeling_.IsLandmark(v);

  result->u = u;
  result->v = v;
  uint32_t distance = bound.upper;
  if (bound.upper == 2) {
    // The certificate pins d to {1, 2}; one edge probe (HasEdge searches
    // the smaller adjacency list itself) settles which.
    s->edges_scanned_direct += 1;
    if (g_.HasEdge(u, v)) distance = 1;
  }
  result->distance = distance;
  const auto [landmark_witnesses, total_witnesses] =
      EmitShortSpgEdges(u, v, distance, s, result);
  if (distance == 1) {
    s->coverage = endpoint_lm ? PairCoverage::kAllThroughLandmarks
                              : PairCoverage::kNoneThroughLandmarks;
  } else if (endpoint_lm || landmark_witnesses == total_witnesses) {
    s->coverage = PairCoverage::kAllThroughLandmarks;
  } else if (landmark_witnesses > 0) {
    s->coverage = PairCoverage::kSomeThroughLandmarks;
  } else {
    s->coverage = PairCoverage::kNoneThroughLandmarks;
  }
  ++s->label_short_circuits;
  return true;
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

void GuidedSearcher::ExpandLevel(int t, SearchStats* stats) {
  const uint64_t scanned = search_.ExpandLevel(t);
  stats->edges_scanned_search += scanned;
  const LevelStack& levels = search_.levels(t);
  uint64_t full_degree = 0;
  for (const VertexId x : levels.Level(levels.NumLevels() - 2)) {
    full_degree += g_.Degree(x);
  }
  stats->landmark_edges_skipped += full_degree - scanned;
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
    stats->edges_scanned_recover += gminus_.Degree(x);
    for (VertexId y : gminus_.Neighbors(x)) {
      if (labeling_.Get(y, r) != dx - 1) continue;
      edges_.emplace_back(x, y);
      if (walk_mark_[y] != serial) {
        walk_mark_[y] = serial;
        walk_stack_.push_back(y);
      }
    }
  }
}

ShortestPathGraph GuidedSearcher::QueryWithSketch(VertexId u, VertexId v,
                                                  const Sketch& sketch,
                                                  SearchStats* stats) {
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
  // does not exist in G⁻, so the search is skipped entirely in that case
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
      ExpandLevel(t, stats);
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

  // Close pairs the labels could not certify still skip the reverse and
  // recover stages: with the distance now known to be 1 or 2, the exact
  // SPG is a direct edge / common-neighbour emission, so d <= 2 queries
  // never scan a reverse or recover edge regardless of certification.
  if (result.distance <= 2) {
    EmitShortSpgEdges(u, v, result.distance, stats, &result);
    return result;
  }

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
