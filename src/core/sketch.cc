#include "core/sketch.h"

#include <algorithm>

#include "util/check.h"

namespace qbs {
namespace {

// The fused two-row bound: max |du - dv| and min du + dv over the lanes
// present in both rows ({0, kUnreachable} when none is).
LabelBound RowBoundScalar(const DistT* ru, const DistT* rv, uint32_t lanes) {
  LabelBound bound;
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT du = ru[i];
    const DistT dv = rv[i];
    if (du == kInfDist || dv == kInfDist) continue;
    const uint32_t base = du > dv ? du - dv : dv - du;
    if (base > bound.lower) bound.lower = base;
    const uint32_t sum = static_cast<uint32_t>(du) + dv;
    if (sum < bound.upper) bound.upper = sum;
  }
  return bound;
}

// Appends SketchAnchor{i, row[i]} for every present lane, ascending i.
void RowCandidatesScalar(const DistT* row, uint32_t lanes,
                         std::vector<SketchAnchor>* out) {
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT d = row[i];
    if (d != kInfDist) out->push_back(SketchAnchor{i, d});
  }
}

}  // namespace

void ComputeAnchorCandidatesInto(const PathLabeling& labeling, VertexId t,
                                 std::vector<SketchAnchor>* out) {
  out->clear();
  const int32_t rank = labeling.LandmarkRank(t);
  if (rank >= 0) {
    out->push_back(SketchAnchor{static_cast<LandmarkIndex>(rank), 0});
    return;
  }
  // Padding lanes are kInfDist and contribute nothing, so scanning the
  // full stride is equivalent to the per-landmark loop.
  RowCandidatesScalar(labeling.Row(t), labeling.row_stride(), out);
}

Sketch ComputeSketch(const PathLabeling& labeling, const MetaGraph& meta,
                     VertexId u, VertexId v) {
  Sketch sketch;
  SketchScratch scratch;
  ComputeSketchInto(labeling, meta, u, v, &sketch, &scratch);
  return sketch;
}

void ComputeSketchInto(const PathLabeling& labeling, const MetaGraph& meta,
                       VertexId u, VertexId v, Sketch* sketch,
                       SketchScratch* scratch, bool with_meta_edges) {
  QBS_DCHECK(meta.finalized());
  sketch->d_top = kUnreachable;
  sketch->u_anchors.clear();
  sketch->v_anchors.clear();
  sketch->meta_edges.clear();
  sketch->d_star_u = 0;
  sketch->d_star_v = 0;

  ComputeAnchorCandidatesInto(labeling, u, &scratch->cu);
  ComputeAnchorCandidatesInto(labeling, v, &scratch->cv);

  // Pass 1: d⊤ = min over candidate pairs (Eq. 3). Pairs with r == r'
  // (single common landmark) are included: d_M(r, r) = 0.
  for (const SketchAnchor& a : scratch->cu) {
    for (const SketchAnchor& b : scratch->cv) {
      const uint32_t mid = meta.Distance(a.landmark, b.landmark);
      if (mid == kUnreachable) continue;
      const uint32_t total = a.delta + mid + b.delta;
      sketch->d_top = std::min(sketch->d_top, total);
    }
  }
  if (sketch->d_top == kUnreachable) return;

  // Pass 2: anchors and minimizing (r, r') pairs.
  scratch->min_pairs.clear();
  for (const SketchAnchor& a : scratch->cu) {
    for (const SketchAnchor& b : scratch->cv) {
      const uint32_t mid = meta.Distance(a.landmark, b.landmark);
      if (mid == kUnreachable) continue;
      if (a.delta + mid + b.delta != sketch->d_top) continue;
      sketch->u_anchors.push_back(a);
      sketch->v_anchors.push_back(b);
      scratch->min_pairs.emplace_back(a.landmark, b.landmark);
    }
  }
  auto dedupe = [](std::vector<SketchAnchor>& anchors) {
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  };
  dedupe(sketch->u_anchors);
  dedupe(sketch->v_anchors);

  // Pass 3: the meta-edges, skippable for callers that only need them
  // on the recover path.
  if (with_meta_edges) ComputeSketchMetaEdges(meta, sketch, scratch);

  // Eq. 4: d*_t = max σ_S(r, t) − 1, clamped at 0 (a landmark endpoint has
  // the single anchor σ = 0 and needs no sparsified-graph search).
  for (const SketchAnchor& a : sketch->u_anchors) {
    if (a.delta > 0) {
      sketch->d_star_u = std::max<uint32_t>(sketch->d_star_u, a.delta - 1u);
    }
  }
  for (const SketchAnchor& b : sketch->v_anchors) {
    if (b.delta > 0) {
      sketch->d_star_v = std::max<uint32_t>(sketch->d_star_v, b.delta - 1u);
    }
  }
}

LabelBound ComputeLabelBoundFromCandidates(
    const std::vector<SketchAnchor>& cu, const std::vector<SketchAnchor>& cv) {
  LabelBound bound;
  // Sorted merge on landmark index (both rows ascend by construction).
  size_t iu = 0;
  size_t iv = 0;
  while (iu < cu.size() && iv < cv.size()) {
    if (cu[iu].landmark < cv[iv].landmark) {
      ++iu;
      continue;
    }
    if (cv[iv].landmark < cu[iu].landmark) {
      ++iv;
      continue;
    }
    const DistT du = cu[iu].delta;
    const DistT dv = cv[iv].delta;
    ++iu;
    ++iv;
    bound.lower = std::max<uint32_t>(bound.lower, du > dv ? du - dv : dv - du);
    bound.upper = std::min(bound.upper, static_cast<uint32_t>(du) + dv);
  }
  return bound;
}

LabelBound ComputeLabelBound(const PathLabeling& labeling,
                             const MetaGraph& meta, VertexId u, VertexId v,
                             uint32_t /*unused*/) {
  QBS_DCHECK(u != v);
  const int32_t rank_u = labeling.LandmarkRank(u);
  const int32_t rank_v = labeling.LandmarkRank(v);
  LabelBound bound;
  if (rank_u >= 0 && rank_v >= 0) {
    // Landmark pair: d_M is the exact distance (Corollary 4.6).
    const uint32_t d = meta.Distance(static_cast<LandmarkIndex>(rank_u),
                                     static_cast<LandmarkIndex>(rank_v));
    bound.upper = d;
    bound.lower = d == kUnreachable ? 0 : d;
    return bound;
  }
  if (rank_u >= 0 || rank_v >= 0) {
    // A (landmark, non-landmark) pair shares at most the landmark's own
    // lane: its virtual (rank, 0) entry against the other side's label,
    // which is then the exact distance.
    const auto i = static_cast<LandmarkIndex>(rank_u >= 0 ? rank_u : rank_v);
    const DistT d = labeling.Get(rank_u >= 0 ? v : u, i);
    if (d != kInfDist) bound = LabelBound{d, d};
    return bound;
  }
  // Non-landmark pair: the fused row scan, equal to the candidate merge
  // over the same rows.
  return RowBoundScalar(labeling.Row(u), labeling.Row(v),
                        labeling.row_stride());
}

void ComputeSketchMetaEdges(const MetaGraph& meta, Sketch* sketch,
                            SketchScratch* scratch) {
  // A meta-edge on a shortest meta-path of a minimizing pair joins two of
  // the pair's on-path landmarks, so each pair tests only the edges among
  // those (O(|R|) to list them), against the weight matrix. Sorting and
  // de-duplicating across pairs gives meta.Edges()'s order.
  sketch->meta_edges.clear();
  std::vector<LandmarkIndex>& on_path = scratch->on_path;
  for (const auto& [s, t] : scratch->min_pairs) {
    meta.OnPathLandmarks(s, t, &on_path);
    for (size_t i = 0; i < on_path.size(); ++i) {
      const LandmarkIndex a = on_path[i];
      const uint32_t sa = meta.Distance(s, a);
      for (size_t j = i + 1; j < on_path.size(); ++j) {
        const LandmarkIndex b = on_path[j];
        const uint32_t weight = meta.EdgeWeight(a, b);
        if (weight == kUnreachable) continue;
        const uint32_t sb = meta.Distance(s, b);
        if (sa + weight == sb || sb + weight == sa) {
          sketch->meta_edges.push_back(MetaEdge{a, b, weight});
        }
      }
    }
  }
  std::sort(sketch->meta_edges.begin(), sketch->meta_edges.end());
  sketch->meta_edges.erase(
      std::unique(sketch->meta_edges.begin(), sketch->meta_edges.end()),
      sketch->meta_edges.end());
}

}  // namespace qbs
