// The QbS labelling scheme L = (M, L) of Definition 4.2 and its
// construction (Algorithm 2).
//
// For each vertex u ∉ R, L(u) contains (r, d_G(u, r)) iff at least one
// shortest path between u and r passes through no other landmark. The
// companion meta-graph M records how landmarks interconnect.
//
// Storage: a dense |V| × |R| matrix of DistT (kInfDist = entry absent),
// vertex-major and unpadded: the label of v is the |R| lanes at v·|R|, the
// same block the index file stores, so a load adopts the buffer it reads
// and a save writes the matrix with one call. With the paper's default
// |R| = 20 a label is 40 bytes — "not much larger than the original
// graph", usually far smaller.
//
// Lemma 5.2: the scheme is uniquely determined by (G, R), independent of
// landmark order and of the order the work is done in. So one BFS can
// carry every landmark at once, a bit lane each, and split its dense
// levels over vertex ranges (QbS-P) with no coordination: the result is
// the same bytes as |R| separate BFSs, on any thread count.

#ifndef QBS_CORE_LABELING_H_
#define QBS_CORE_LABELING_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/meta_graph.h"
#include "core/types.h"
#include "graph/graph.h"

namespace qbs {

class PathLabeling {
 public:
  /// Empty labelling (no vertices, no landmarks).
  PathLabeling() = default;
  /// Allocates the |V| x |R| matrix, all entries absent (kInfDist).
  PathLabeling(VertexId num_vertices, std::vector<VertexId> landmarks);
  /// Adopts `rows`, the vertex-major |V| x |R| matrix (rows[v * |R| + i]),
  /// without a copy. CHECKs its size.
  PathLabeling(VertexId num_vertices, std::vector<VertexId> landmarks,
               std::vector<DistT> rows);

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
  DistT Get(VertexId v, LandmarkIndex i) const { return Row(v)[i]; }

  void Set(VertexId v, LandmarkIndex i, DistT d) {
    dist_[static_cast<size_t>(v) * landmarks_.size() + i] = d;
  }

  /// The label row of v: num_landmarks() DistT lanes.
  const DistT* Row(VertexId v) const {
    return dist_.data() + static_cast<size_t>(v) * landmarks_.size();
  }

  /// The whole matrix, vertex-major: Row(v) starts at v * num_landmarks().
  std::span<const DistT> Rows() const { return dist_; }

  /// Number of finite labelling entries: size(L) = Σ_v |L(v)| (§2).
  uint64_t NumEntries() const;

  /// Bytes of the dense label matrix, the quantity Table 3 reports as
  /// size(L) (the paper stores |R| fixed-width slots per vertex, as we do).
  uint64_t SizeBytes() const { return dist_.size() * sizeof(DistT); }

 private:
  VertexId num_vertices_ = 0;
  std::vector<VertexId> landmarks_;
  std::vector<int32_t> landmark_rank_;
  std::vector<DistT> dist_;  // |V| x |R|, vertex-major
};

struct LabelingScheme {
  PathLabeling labeling;
  MetaGraph meta;
};

/// Runs Algorithm 2 for every landmark in one level-synchronous BFS that
/// carries a bit lane per landmark (one 32-bit word per vertex when |R| ≤
/// 32, else ⌈|R|/64⌉ 64-bit words), with the QL / QN rule applied lane
/// by lane. Dense levels pull and split over
/// vertex ranges on `num_threads` threads (1 = sequential, the paper's
/// QbS; 0 = hardware concurrency, QbS-P; otherwise the exact count);
/// sparse levels push on the calling thread. Landmark vertex ids must be
/// distinct and valid. The result is deterministic w.r.t. (g, landmarks)
/// regardless of thread count or landmark order (Lemma 5.2); only the
/// landmark *indexing* follows the given order. CHECK-fails if a vertex
/// lies kInfDist or more hops from a landmark that reaches it.
LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   size_t num_threads = 1);

/// Assembles M over k landmarks from the per-column meta-edge lists,
/// column_meta(i) for landmark index i: one MetaGraph::AddEdge per entry,
/// then Finalize. Each meta-edge is listed by both of its endpoint
/// columns; AddEdge orients the pair and CHECKs that the two copies carry
/// the same weight. The build and the edit path both assemble M here.
MetaGraph AssembleMetaGraph(
    uint32_t k,
    const std::function<std::span<const MetaEdge>(LandmarkIndex)>&
        column_meta);

/// d_G(r_i, v), derived from the scheme alone in O(|R|): split a shortest
/// r_i-v path at its last landmark r_j. The prefix is exact in M
/// (Corollary 4.6) and the suffix avoids every other landmark, so it is
/// v's label entry for r_j. Hence d_G(r_i, v) = min over j of
/// d_M(i, j) + δ(v, r_j) for v ∉ R, and d_M(i, rank(v)) for a landmark.
/// `meta_row` is M.DistanceRow(i). kUnreachable when r_i does not reach v.
uint32_t DerivedDepth(const PathLabeling& labeling, const uint32_t* meta_row,
                      VertexId v);

}  // namespace qbs

#endif  // QBS_CORE_LABELING_H_
