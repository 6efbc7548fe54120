// The QbS labelling scheme L = (M, L) of Definition 4.2 and its
// construction (Algorithm 2).
//
// For each vertex u ∉ R, L(u) contains (r, d_G(u, r)) iff at least one
// shortest path between u and r passes through no other landmark. The
// companion meta-graph M records how landmarks interconnect.
//
// Storage: a dense |V| × |R| matrix of DistT (kInfDist = entry absent).
// With the paper's default |R| = 20 a label is 40 bytes — "not much larger
// than the original graph", usually far smaller.
//
// Lemma 5.2: the scheme is uniquely determined by (G, R), independent of
// landmark order, so construction parallelizes per landmark with no
// coordination (QbS-P).

#ifndef QBS_CORE_LABELING_H_
#define QBS_CORE_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/meta_graph.h"
#include "core/types.h"
#include "graph/graph.h"
#include "util/aligned.h"

namespace qbs {

/// Label rows are padded to a multiple of this many DistT lanes (32 bytes)
/// and the matrix storage is 32-byte aligned. Padding lanes always hold
/// kInfDist — the "entry absent" sentinel — so the row scans in
/// core/sketch.cc run over the padded width blindly: an absent lane
/// contributes nothing to any bound or candidate list.
///
/// The padding is kept for a measured reason, not for vector loads.
/// Unpadded rows shrink the matrix (7 MB -> 4.4 MB at |R| = 20 on
/// bench_e2e's TW x4) across glibc's dynamic mmap threshold: setup time
/// rose ~20% with no extra work, graph loading included, and pinning
/// glibc.malloc.mmap_threshold on both sides removed the gap.
inline constexpr uint32_t kLabelRowLaneAlign = 16;

/// The dense label matrix storage, 32-byte aligned (util/aligned.h).
using LabelMatrix = std::vector<DistT, AlignedAllocator<DistT, 32>>;

class PathLabeling {
 public:
  /// Empty labelling (no vertices, no landmarks).
  PathLabeling() = default;
  /// Allocates the |V| x |R| matrix, all entries absent (kInfDist).
  PathLabeling(VertexId num_vertices, std::vector<VertexId> landmarks);

  /// |R|, the landmark count the matrix was built with.
  uint32_t num_landmarks() const {
    return static_cast<uint32_t>(landmarks_.size());
  }
  /// |V| of the graph the labelling describes.
  VertexId num_vertices() const { return num_vertices_; }

  /// The landmark vertex ids, in index order.
  const std::vector<VertexId>& landmarks() const { return landmarks_; }
  /// Vertex id of the i-th landmark.
  VertexId LandmarkVertex(LandmarkIndex i) const { return landmarks_[i]; }

  /// Landmark index of v, or -1 if v is not a landmark.
  int32_t LandmarkRank(VertexId v) const { return landmark_rank_[v]; }
  /// True iff v ∈ R.
  bool IsLandmark(VertexId v) const { return landmark_rank_[v] >= 0; }

  /// δ_{v, r_i}, or kInfDist if r_i ∉ L(v). Landmarks carry no stored labels
  /// (Definition 4.2 assigns labels to V \ R only).
  DistT Get(VertexId v, LandmarkIndex i) const {
    return dist_[static_cast<size_t>(v) * stride_ + i];
  }

  void Set(VertexId v, LandmarkIndex i, DistT d) {
    dist_[static_cast<size_t>(v) * stride_ + i] = d;
  }

  /// The label row of v: `row_stride()` DistT lanes, 32-byte aligned.
  /// Lanes [num_landmarks(), row_stride()) are padding and always hold
  /// kInfDist (see kLabelRowLaneAlign) — the row scans cover the full
  /// stride.
  const DistT* Row(VertexId v) const {
    return dist_.data() + static_cast<size_t>(v) * stride_;
  }

  /// Lanes per row: num_landmarks() rounded up to kLabelRowLaneAlign.
  uint32_t row_stride() const { return stride_; }

  /// Number of finite labelling entries: size(L) = Σ_v |L(v)| (§2).
  uint64_t NumEntries() const;

  /// Bulk-fills the matrix from a landmark-major buffer (cols[i * |V| + v]).
  /// Construction writes labels column-wise — each landmark BFS streams its
  /// own |V|-sized column sequentially — and transposes once at the end,
  /// instead of scattering one cache line per labelled vertex across the
  /// whole vertex-major matrix on every BFS.
  void AssignFromColumns(const std::vector<DistT>& cols);

  /// Bulk-fills the matrix from unpadded vertex-major rows
  /// (rows[v * |R| + i]), the index file's layout: one row copy per vertex.
  void AssignFromRows(const std::vector<DistT>& rows);

  /// Bytes of the dense label matrix, the quantity Table 3 reports as
  /// size(L) (the paper stores |R| fixed-width slots per vertex, as we do).
  /// Logical |V| x |R| bytes — row padding is an in-memory layout detail
  /// and is excluded to keep the number paper-comparable.
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(num_vertices_) * num_landmarks() *
           sizeof(DistT);
  }

 private:
  VertexId num_vertices_ = 0;
  uint32_t stride_ = 0;  // row lanes: |R| rounded up to kLabelRowLaneAlign
  std::vector<VertexId> landmarks_;
  std::vector<int32_t> landmark_rank_;
  LabelMatrix dist_;  // |V| x stride_, 32-byte aligned, padding = kInfDist
};

struct LabelingScheme {
  PathLabeling labeling;
  MetaGraph meta;
};

struct LabelingBuildOptions {
  /// 1 = sequential (paper's QbS); 0 = hardware concurrency (QbS-P);
  /// otherwise the exact thread count.
  size_t num_threads = 1;
};

/// Runs Algorithm 2: one two-queue level-synchronous BFS per landmark.
/// Landmark vertex ids must be distinct and valid. The result is
/// deterministic w.r.t. (g, landmarks) regardless of thread count or
/// landmark order (Lemma 5.2); only the landmark *indexing* follows the
/// given order.
LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   const LabelingBuildOptions& options = {});

/// --- Incremental maintenance entry points (core/updatable_index.h). ---

/// Exact BFS state of one landmark column, captured at build time and kept
/// exact by incremental maintenance, which repairs depths and re-derives
/// labels only where an edit changed them. depth[v] = d_G(r_i, v) for
/// every vertex (kUnreachable when disconnected — unlike the label matrix,
/// which only keeps pruned entries); meta holds the column's meta-edges
/// (a = this column's landmark index), sorted.
struct LabelColumnState {
  std::vector<uint32_t> depth;
  std::vector<MetaEdge> meta;
};

/// Rebuilds landmark column i from scratch against `g`: runs the labelling
/// BFS, writes the column into `labeling`, and captures the exact depth
/// array + meta-edges into `state`. Equivalent to the slice of
/// BuildLabelingScheme for this landmark — bit-identical labels.
void RebuildLabelColumn(const Graph& g, PathLabeling& labeling,
                        LandmarkIndex i, LabelColumnState* state);

/// Re-derives landmark column i's labels and meta-edges at `candidates`,
/// given state->depth already exact on `g` (e.g. after a partial depth
/// repair). Candidates are re-derived in depth order with the build's rule
/// — a vertex is QL iff some depth-(d-1) neighbour is QL — reading QL back
/// from the column (the root, or a non-landmark with a label); a vertex
/// that joins or leaves QL adds its children. The result is bit-identical
/// to RebuildLabelColumn(g, ...) as long as the candidates cover every
/// vertex whose QL status can have changed: the vertices whose depth
/// changed, the endpoints of every edited edge, and the old and new
/// children of every vertex whose depth changed. Duplicates are allowed.
/// Returns true iff a label or meta-edge changed.
bool RederiveLabelsAt(const Graph& g, PathLabeling& labeling,
                      LandmarkIndex i, const std::vector<VertexId>& candidates,
                      LabelColumnState* state);

}  // namespace qbs

#endif  // QBS_CORE_LABELING_H_
