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
//
// Bit-parallel extension (Akiba, Iwata & Yoshida, SIGMOD'13 §4.2): each
// landmark r additionally selects S_r, its first <= 64 non-landmark
// neighbours, and every vertex v stores two 64-bit masks relative to
// d_G(r, v):
//   S_r^{-1}(v) = { u in S_r : d_G(u, v) = d_G(r, v) - 1 }
//   S_r^{ 0}(v) = { u in S_r : d_G(u, v) = d_G(r, v)     }
// A query pair (s, t) with labels for r then refines the landmark route
// d(s,r) + d(r,t) by -2 (common S^{-1} witness) or -1 (S^{-1}/S^0 cross
// witness) without touching the graph, which certifies most d <= 2 pairs
// straight from the labelling (core/sketch.h ComputeLabelBound).

#ifndef QBS_CORE_LABELING_H_
#define QBS_CORE_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/meta_graph.h"
#include "core/types.h"
#include "graph/graph.h"
#include "util/aligned.h"

namespace qbs {

/// Label rows are padded to a multiple of this many DistT lanes (16 lanes
/// x 2 bytes = one 32-byte AVX2 vector) and the matrix storage is 32-byte
/// aligned, so the SIMD row kernels (core/label_scan.h) scan whole rows
/// with full-width aligned loads and no tail loop. Padding lanes always
/// hold kInfDist — the "entry absent" sentinel — so every kernel can scan
/// the padded width blindly: an absent lane contributes nothing to any
/// bound, candidate list, or witness check.
inline constexpr uint32_t kLabelRowLaneAlign = 16;

/// The dense label matrix storage: 32-byte aligned for the SIMD kernels.
using LabelMatrix = std::vector<DistT, AlignedAllocator<DistT, 32>>;

/// Per-(vertex, landmark) bit-parallel masks over the landmark's selected
/// neighbour set S_r (bit j = j-th entry of BpSelected(r)).
struct BpMask {
  uint64_t s_minus = 0;  // selected neighbours at distance d_G(r, v) - 1
  uint64_t s_zero = 0;   // selected neighbours at distance d_G(r, v)

  friend bool operator==(const BpMask& a, const BpMask& b) {
    return a.s_minus == b.s_minus && a.s_zero == b.s_zero;
  }
};

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
  /// kInfDist (see kLabelRowLaneAlign) — kernels scan the full stride.
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

  /// --- Bit-parallel masks (optional; empty unless enabled at build). ---

  bool has_bp_masks() const { return !bp_.empty(); }

  /// Allocates the mask matrix and the per-landmark selected-neighbour slots.
  /// Idempotent shape-wise; called by construction and the loader.
  void EnableBpMasks();

  BpMask GetBpMask(VertexId v, LandmarkIndex i) const {
    return bp_[static_cast<size_t>(v) * num_landmarks() + i];
  }
  void SetBpMask(VertexId v, LandmarkIndex i, const BpMask& m) {
    bp_[static_cast<size_t>(v) * num_landmarks() + i] = m;
  }

  /// The mask row of v (num_landmarks() entries, unpadded — the kernels
  /// only gather masks for the few lanes that pass the refine gate).
  /// Only valid when has_bp_masks().
  const BpMask* BpRow(VertexId v) const {
    return bp_.data() + static_cast<size_t>(v) * num_landmarks();
  }

  /// S_r of landmark i: the selected non-landmark neighbours, in the bit
  /// order the masks use. Empty when masks are disabled.
  const std::vector<VertexId>& BpSelected(LandmarkIndex i) const {
    return bp_selected_[i];
  }
  void SetBpSelected(LandmarkIndex i, std::vector<VertexId> selected);

  /// Bulk-fills the mask matrix from a landmark-major buffer, mirroring
  /// AssignFromColumns.
  void AssignBpFromColumns(const std::vector<BpMask>& cols);

  /// Adopts a whole mask state, enabling masks: S_r per landmark (<= 64
  /// each) and the vertex-major |V| x |R| mask matrix, which is the index
  /// file's layout and is moved in as is.
  void AssignBpMasks(std::vector<std::vector<VertexId>> selected,
                     std::vector<BpMask> masks);

  /// Bytes of the bit-parallel mask matrix (reported separately from
  /// size(L) to keep the Table 3 quantity paper-comparable).
  uint64_t BpSizeBytes() const { return bp_.size() * sizeof(BpMask); }

 private:
  VertexId num_vertices_ = 0;
  uint32_t stride_ = 0;  // row lanes: |R| rounded up to kLabelRowLaneAlign
  std::vector<VertexId> landmarks_;
  std::vector<int32_t> landmark_rank_;
  LabelMatrix dist_;  // |V| x stride_, 32-byte aligned, padding = kInfDist
  std::vector<BpMask> bp_;  // vertex-major |V| x |R|; empty = disabled
  std::vector<std::vector<VertexId>> bp_selected_;  // S_r per landmark
};

struct LabelingScheme {
  PathLabeling labeling;
  MetaGraph meta;
};

struct LabelingBuildOptions {
  /// 1 = sequential (paper's QbS); 0 = hardware concurrency (QbS-P);
  /// otherwise the exact thread count.
  size_t num_threads = 1;
  /// Build the Akiba-style bit-parallel masks alongside the labels. Costs
  /// 16 bytes per label slot; buys label-only d <= 2 answers and tighter
  /// distance bounds at query time.
  bool bit_parallel = true;
  /// Fuse the S^{-1} mask propagation into the labelling BFS itself:
  /// top-down levels OR parent masks along the edges the expansion scans
  /// anyway, and bottom-up levels collect them during the (full-adjacency)
  /// pull, so only the S^0 sweep replays the settle order afterwards —
  /// one post-BFS sweep per landmark instead of two. Off = the reference
  /// two-sweep replay (kept for the bit-identity equivalence tests and the
  /// fused-vs-replay ablation). Masks are identical either way.
  bool bp_fused = true;
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

/// Exact BFS state of one landmark column, captured at (re)build time so
/// incremental maintenance can detect affected columns from stored depths
/// and rederive labels after partial repairs. depth[v] = d_G(r_i, v) for
/// every vertex (kUnreachable when disconnected — unlike the label matrix,
/// which only keeps pruned entries); meta holds the column's meta-edges
/// (a = this column's landmark index), sorted.
struct LabelColumnState {
  std::vector<uint32_t> depth;
  std::vector<MetaEdge> meta;
};

/// Rebuilds landmark column i from scratch against `g`: refreshes S_r when
/// masks are enabled, runs the labelling BFS, fills the mask column, writes
/// the column into `labeling` (labels + masks, vertex-major), and captures
/// the exact depth array + meta-edges into `state`. Equivalent to the slice
/// of BuildLabelingScheme for this landmark — bit-identical labels/masks.
void RebuildLabelColumn(const Graph& g, PathLabeling& labeling,
                        LandmarkIndex i, LabelColumnState* state);

/// Rederives landmark column i's labels, meta-edges, and masks from an
/// already-exact depth array in state->depth (e.g. after a partial BFS
/// repair against the updated graph): recomputes the QL classification
/// level by level and replays the mask sweeps. Bit-identical to
/// RebuildLabelColumn(g, ...) whenever state->depth matches the BFS depths
/// on `g` — the QL rule and both mask recurrences depend only on exact
/// depths, not on traversal order. state->meta is rewritten; S_r is
/// refreshed from `g`'s adjacency when masks are enabled.
void RederiveLabelColumn(const Graph& g, PathLabeling& labeling,
                         LandmarkIndex i, LabelColumnState* state);

}  // namespace qbs

#endif  // QBS_CORE_LABELING_H_
