// The meta-graph M = (R, E_R, σ) of Definition 4.1: landmarks are vertices,
// an edge (r, r') exists iff at least one shortest path between r and r' in
// G passes through no other landmark, and its weight is d_G(r, r').
//
// After Finalize(), all-pairs shortest path distances over M are
// materialized (|R| is tiny — 20 by default — so Floyd–Warshall is
// instantaneous), which reduces sketch construction from O(|R|^4) to
// O(|R|^2) exactly as §5.2 prescribes.

#ifndef QBS_CORE_META_GRAPH_H_
#define QBS_CORE_META_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "graph/bfs.h"

namespace qbs {

struct MetaEdge {
  LandmarkIndex a = 0;  // a < b (landmark indices, not vertex ids)
  LandmarkIndex b = 0;
  uint32_t weight = 0;  // d_G(landmark a, landmark b)

  friend bool operator==(const MetaEdge& x, const MetaEdge& y) {
    return x.a == y.a && x.b == y.b && x.weight == y.weight;
  }
  friend bool operator<(const MetaEdge& x, const MetaEdge& y) {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.weight < y.weight;
  }
};

class MetaGraph {
 public:
  MetaGraph() = default;
  explicit MetaGraph(uint32_t num_landmarks);

  uint32_t num_landmarks() const { return k_; }

  // Adds an undirected meta-edge. Idempotent: construction discovers each
  // edge from both endpoint BFSs with identical weight (the weight is
  // d_G(a, b), which is unique).
  void AddEdge(LandmarkIndex a, LandmarkIndex b, uint32_t weight);

  // Direct meta-edge weight, or kUnreachable if (a, b) is not a meta-edge.
  uint32_t EdgeWeight(LandmarkIndex a, LandmarkIndex b) const {
    return weight_[Idx(a, b)];
  }

  // Runs APSP over the weighted meta-graph. Must be called after all
  // AddEdge calls and before Distance()/EdgeOnShortestPath().
  void Finalize();

  // d_M(a, b): shortest path distance in the meta-graph. For landmarks this
  // equals d_G(a, b) (subpaths of shortest paths split at consecutive
  // landmarks are meta-edges). kUnreachable if disconnected in M.
  uint32_t Distance(LandmarkIndex a, LandmarkIndex b) const {
    return dist_[Idx(a, b)];
  }

  // All meta-edges, each once (a < b), sorted.
  const std::vector<MetaEdge>& Edges() const { return edges_; }

  // True iff meta-edge `e` lies on at least one shortest path between
  // landmarks s and t in the meta-graph (used by sketching to collect the
  // meta shortest-path graph of a minimizing landmark pair).
  bool EdgeOnShortestPath(const MetaEdge& e, LandmarkIndex s,
                          LandmarkIndex t) const;

  // Clears *out and fills it, ascending, with the landmarks x on some
  // shortest meta-path between s and t: d_M(s, x) + d_M(x, t) = d_M(s, t).
  // Empty when s and t are disconnected in M; {s} when s == t. O(|R|).
  // A meta-edge lies on a shortest s-t meta-path iff both its ends are
  // listed here and their d_M(s, ·) differ by its weight.
  void OnPathLandmarks(LandmarkIndex s, LandmarkIndex t,
                       std::vector<LandmarkIndex>* out) const;

  bool finalized() const { return finalized_; }

  // Bytes of the edge list + weight matrix (the paper notes this stays
  // under 0.01 MB even at |R| = 100).
  uint64_t SizeBytes() const;

 private:
  size_t Idx(LandmarkIndex a, LandmarkIndex b) const {
    return static_cast<size_t>(a) * k_ + b;
  }

  uint32_t k_ = 0;
  bool finalized_ = false;
  std::vector<uint32_t> weight_;  // dense k*k, kUnreachable = no edge
  std::vector<uint32_t> dist_;    // dense k*k APSP result
  std::vector<MetaEdge> edges_;
};

}  // namespace qbs

#endif  // QBS_CORE_META_GRAPH_H_
