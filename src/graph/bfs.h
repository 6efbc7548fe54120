// Breadth-first search, shared by indexes, baselines, the serving layer
// and the workload tooling.
//
// BfsDistances is a plain top-down queue BFS: the reference that the
// direction-optimizing labelling BFS, the SPG oracle and the tests are
// checked against, so it shares no traversal code with them. Point-to-point
// distances and SPGs come from the Bi-BFS baseline (baselines/bibfs.h).

#ifndef QBS_GRAPH_BFS_H_
#define QBS_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace qbs {

// Sentinel distance for unreachable vertices.
inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

// Full multi-source BFS. Returns each vertex's distance to its nearest
// source (kUnreachable for vertices connected to none). Duplicate sources
// are allowed; no source gives all kUnreachable.
std::vector<uint32_t> BfsDistances(const Graph& g,
                                   std::span<const VertexId> sources);

// Full single-source BFS: the multi-source form with one source.
std::vector<uint32_t> BfsDistances(const Graph& g, VertexId source);

}  // namespace qbs

#endif  // QBS_GRAPH_BFS_H_
