// The answer type of a shortest-path-graph query (Definition 2.2): the
// subgraph containing exactly all shortest paths between two vertices,
// plus analysis helpers (path counting, critical vertices/edges) used by the
// applications the paper motivates in §1 (rerouting, network interdiction,
// common links).

#ifndef QBS_GRAPH_SPG_H_
#define QBS_GRAPH_SPG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"

namespace qbs {

// A shortest path graph between `u` and `v`. Edges are stored normalized
// (smaller endpoint first), sorted, and unique, so two results can be
// compared with operator==.
struct ShortestPathGraph {
  VertexId u = 0;
  VertexId v = 0;
  // d_G(u, v); kUnreachable when u and v are disconnected.
  uint32_t distance = kUnreachable;
  std::vector<Edge> edges;

  bool Connected() const { return distance != kUnreachable; }

  // Sorts and dedupes `edges`. Producers call this once before returning.
  void Normalize();

  // Sets `edges` to what assigning `raw` and calling Normalize() gives,
  // sorting the edges as packed 64-bit keys in *keys, a scratch buffer the
  // caller keeps at capacity across calls.
  void AssignNormalized(std::span<const Edge> raw,
                        std::vector<uint64_t>* keys);

  // Sorted unique vertices of the SPG. Includes u (== v) for the trivial
  // distance-0 query; empty if disconnected.
  std::vector<VertexId> Vertices() const;

  // Number of distinct shortest paths between u and v, saturating at
  // UINT64_MAX. 1 for u == v, 0 if disconnected.
  uint64_t CountShortestPaths() const;

  // Vertices (excluding u and v) that lie on *every* shortest path.
  // Removing any of them destroys all shortest paths between u and v —
  // the Shortest Path Network Interdiction primitive (§1).
  std::vector<VertexId> CriticalVertices() const;

  // Edges that lie on every shortest path (the Shortest Path Common Links
  // problem, §1).
  std::vector<Edge> CriticalEdges() const;

  friend bool operator==(const ShortestPathGraph& a,
                         const ShortestPathGraph& b) {
    return a.u == b.u && a.v == b.v && a.distance == b.distance &&
           a.edges == b.edges;
  }
};

}  // namespace qbs

#endif  // QBS_GRAPH_SPG_H_
