// Immutable CSR (compressed sparse row) representation of an unweighted,
// undirected, simple graph. This is the substrate every index and search in
// the library operates on.
//
// Vertex ids are dense integers [0, NumVertices()). Adjacency lists are
// sorted ascending, self-loops and parallel edges are removed at build time,
// and every undirected edge {u, v} is stored in both lists (as the paper's
// Table 1 does when it reports |G| with "each edge appearing in the
// adjacency lists").

#ifndef QBS_GRAPH_GRAPH_H_
#define QBS_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qbs {

using VertexId = uint32_t;

class Graph;
struct DatasetCacheInfo;
/// Declared here so the cache loader (graph/dataset_io.h, where the full
/// contract lives) can be befriended for checksum-validated CSR adoption.
std::optional<Graph> LoadGraphCache(const std::string& path,
                                    DatasetCacheInfo* info);

/// An undirected edge. Normalized() orders the endpoints so edge sets can be
/// compared with std::sort + std::unique.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  Edge() = default;
  Edge(VertexId a, VertexId b) : u(a), v(b) {}

  Edge Normalized() const { return u <= v ? Edge(u, v) : Edge(v, u); }

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
};

class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  /// Builds a graph with `num_vertices` vertices from an arbitrary edge list.
  /// Self-loops are dropped; duplicate edges (in either orientation) are
  /// merged. Endpoints must be < num_vertices.
  static Graph FromEdges(VertexId num_vertices, std::vector<Edge> edges);

  /// Adopts already-built CSR arrays verbatim (no normalization). The arrays
  /// must satisfy every Graph invariant — offsets monotone with
  /// offsets[0] == 0 and offsets.back() == adjacency.size(), each adjacency
  /// slice sorted strictly ascending with in-range non-self entries —
  /// which is CHECK-enforced. This is the bit-identical path the dataset
  /// cache loader uses; everything else should go through FromEdges.
  static Graph FromCsr(std::vector<uint64_t> offsets,
                       std::vector<VertexId> adjacency);

  /// True iff the arrays satisfy every invariant FromCsr requires: the
  /// graceful check for untrusted bytes such as a dataset cache file. One
  /// pass over each array: every offset is checked before any list is
  /// read (so a bad offset never steers a read out of bounds), then each
  /// list by one branch-free loop (ValidCsrLists). It does not check
  /// symmetry: a list holding v without v's list holding u passes, and
  /// neither FromCsr nor the cache loader catches it.
  static bool IsValidCsr(std::span<const uint64_t> offsets,
                         std::span<const VertexId> adjacency);

  /// Number of vertices; valid ids are [0, NumVertices()).
  VertexId NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges (each {u, v} counted once).
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  /// Number of neighbours of v (the undirected degree).
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted ascending adjacency list of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Largest degree over all vertices (0 for the empty graph).
  uint32_t MaxDegree() const;
  /// 2|E| / |V| — both directions counted, as Table 1's "avg. deg" does.
  double AverageDegree() const;

  /// All undirected edges, each once, normalized and sorted.
  std::vector<Edge> EdgeList() const;

  /// Bytes of the adjacency structure (offsets + adjacency), the quantity the
  /// paper's Table 1 reports as |G|.
  uint64_t SizeBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           adjacency_.size() * sizeof(VertexId);
  }

  /// Raw CSR arrays, exposed for binary persistence (graph/dataset_io.h)
  /// and bit-identity tests. offsets has NumVertices()+1 entries; adjacency
  /// holds both directions of every undirected edge.
  std::span<const uint64_t> RawOffsets() const { return offsets_; }
  std::span<const VertexId> RawAdjacency() const { return adjacency_; }

 private:
  /// IsValidCsr's two halves, which the cache loader runs separately: it
  /// checks the offsets once read, then the lists each adjacency chunk
  /// completes while the chunk is still in cache.
  ///
  /// True iff offsets[0] == 0, the offsets never decrease, the last one is
  /// `adjacency_size`, and that size is even (both directions of every
  /// edge). False for an empty array.
  static bool ValidCsrOffsets(std::span<const uint64_t> offsets,
                              uint64_t adjacency_size);
  /// True iff the list of every vertex in [begin, end) is strictly
  /// ascending, free of the vertex itself and below n = offsets.size() - 1.
  /// Requires ValidCsrOffsets(offsets, adjacency.size()); reads only
  /// adjacency[offsets[begin], offsets[end]).
  static bool ValidCsrLists(std::span<const uint64_t> offsets,
                            std::span<const VertexId> adjacency,
                            VertexId begin, VertexId end);

  /// FromCsr without the invariant CHECKs. Reserved for arrays already
  /// known valid: the cache loader checked them as it read them (a second
  /// O(|V| + |E|) pass per load would cancel much of the cache's point on
  /// billion-edge graphs).
  static Graph AdoptCsr(std::vector<uint64_t> offsets,
                        std::vector<VertexId> adjacency);
  friend std::optional<Graph> LoadGraphCache(const std::string& path,
                                             DatasetCacheInfo* info);

  /// CSR arrays: neighbors of v are adjacency_[offsets_[v] .. offsets_[v+1]).
  std::vector<uint64_t> offsets_;
  std::vector<VertexId> adjacency_;
};

}  // namespace qbs

#endif  // QBS_GRAPH_GRAPH_H_
