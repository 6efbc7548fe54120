// Sketch computation (Definition 4.5, Algorithm 3).
//
// A sketch for SPG(u, v) is the subgraph of {u, v} ∪ R induced by the
// minimum-length u→landmark→…→landmark→v routes implied by the labelling
// scheme. It yields:
//   * d⊤_uv  — an upper bound on d_G(u, v) that is tight whenever some
//              shortest path passes through a landmark (Corollary 4.6);
//   * anchors — the (landmark, δ) pairs connecting u and v into the sketch;
//   * meta-edges on the shortest meta-paths between minimizing landmark
//     pairs;
//   * d*_u, d*_v — per-side search depth suggestions (Eq. 4).
//
// With the meta-graph APSP precomputed (§5.2), d⊤ is a min-plus sweep:
// |cv|·|R| contiguous row adds (one APSP row per v-candidate), then one
// lookup per u-candidate. The anchors come from a pass 2 over only the
// u-candidates that reach d⊤, |cv| lookups each. The meta-edges cost, per
// minimizing landmark pair, O(|R|) to list its on-path landmarks and a test
// of each pair of them.

#ifndef QBS_CORE_SKETCH_H_
#define QBS_CORE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/meta_graph.h"
#include "core/types.h"
#include "graph/bfs.h"
#include "graph/graph.h"

namespace qbs {

/// An edge (t, r) of the sketch between an endpoint t ∈ {u, v} and a
/// landmark, weighted σ_S(t, r) = d_G(t, r). delta == 0 iff t is itself that
/// landmark.
struct SketchAnchor {
  LandmarkIndex landmark = 0;
  DistT delta = 0;

  friend bool operator==(const SketchAnchor& a, const SketchAnchor& b) {
    return a.landmark == b.landmark && a.delta == b.delta;
  }
  friend bool operator<(const SketchAnchor& a, const SketchAnchor& b) {
    return a.landmark != b.landmark ? a.landmark < b.landmark
                                    : a.delta < b.delta;
  }
};

struct Sketch {
  /// d⊤_uv of Eq. 3; kUnreachable when no landmark route connects u and v.
  uint32_t d_top = kUnreachable;
  /// Sketch edges (u, r) and (v, r') over all minimizing pairs.
  std::vector<SketchAnchor> u_anchors;
  std::vector<SketchAnchor> v_anchors;
  /// Meta-edges lying on a shortest meta-path of some minimizing pair.
  std::vector<MetaEdge> meta_edges;
  /// Eq. 4 search-depth guides (0 when a side has no anchors or is itself a
  /// landmark).
  uint32_t d_star_u = 0;
  uint32_t d_star_v = 0;
};

/// Reusable buffers for sketch computation: queries are microsecond-scale,
/// so per-query allocations are a measurable constant factor.
struct SketchScratch {
  std::vector<SketchAnchor> cu, cv;
  std::vector<std::pair<LandmarkIndex, LandmarkIndex>> min_pairs;
  std::vector<LandmarkIndex> on_path;
  /// Pass 1's min-plus row: reach[r] = min over v-candidates b of
  /// d_M(r, b) + δ(v, b), |R| entries.
  std::vector<uint32_t> reach;
};

/// Computes the sketch for SPG(u, v). Either endpoint may be a landmark, in
/// which case it participates with the virtual entry (itself, 0).
Sketch ComputeSketch(const PathLabeling& labeling, const MetaGraph& meta,
                     VertexId u, VertexId v);

/// Allocation-free variant: clears and refills *sketch using *scratch.
/// With with_meta_edges = false, the meta-edge pass (on-path landmarks of
/// each minimizing pair, then the meta-edges among them) is skipped and
/// sketch->meta_edges stays empty; call ComputeSketchMetaEdges later to
/// fill it. The guided search defers the pass this way because most
/// queries resolve entirely inside the sparsified graph and never read the
/// meta-edges.
void ComputeSketchInto(const PathLabeling& labeling, const MetaGraph& meta,
                       VertexId u, VertexId v, Sketch* sketch,
                       SketchScratch* scratch, bool with_meta_edges = true);

/// The label entries of `t` as sketch-anchor candidates: clears and refills
/// *out with its stored label in ascending landmark order, or with the
/// single virtual entry {(rank(t), 0)} if t is a landmark.
void ComputeAnchorCandidatesInto(const PathLabeling& labeling, VertexId t,
                                 std::vector<SketchAnchor>* out);

/// Runs the deferred meta-edge pass for a sketch produced by
/// ComputeSketchInto(..., /*with_meta_edges=*/false) with the same scratch
/// (which still holds the minimizing pairs).
void ComputeSketchMetaEdges(const MetaGraph& meta, Sketch* sketch,
                            SketchScratch* scratch);

/// Distance bounds on d_G(u, v) read from the labelling alone — one fused
/// scan of the two label rows, O(|R|), no graph access.
struct LabelBound {
  /// max |δ_{u,r} - δ_{v,r}| over landmarks present in both labels (triangle
  /// inequality); 0 when the labels share no landmark.
  uint32_t lower = 0;
  /// min over shared landmarks of δ_{u,r} + δ_{v,r}: the length of an actual
  /// u..r..v walk, so a sound upper bound; kUnreachable when no landmark is
  /// shared.
  uint32_t upper = kUnreachable;
};

/// Computes LabelBound for (u, v). Landmark endpoints are handled via the
/// other side's label row (exact when present: the endpoint is itself the
/// landmark) or, for a landmark pair, the meta-graph APSP distance (exact by
/// Corollary 4.6 — the endpoints are landmarks on every path). Requires
/// u != v.
///
/// The trailing parameter is ignored; kept because bench_e2e (frozen by
/// BENCHMARK.json) reads it.
LabelBound ComputeLabelBound(const PathLabeling& labeling,
                             const MetaGraph& meta, VertexId u, VertexId v,
                             uint32_t /*unused*/ = 0);

}  // namespace qbs

#endif  // QBS_CORE_SKETCH_H_
