// Single-source breadth-first search, shared by indexes, baselines, and the
// workload tooling.
//
// BfsDistances is a plain top-down queue BFS: the reference that the
// direction-optimizing labelling BFS, the SPG oracle and the tests are
// checked against, so it shares no traversal code with them. Point-to-point
// distances and SPGs come from the Bi-BFS baseline (baselines/bibfs.h).

#ifndef QBS_GRAPH_BFS_H_
#define QBS_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace qbs {

// Sentinel distance for unreachable vertices.
inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

// Full single-source BFS. Returns the distance array (kUnreachable for
// vertices not connected to `source`).
std::vector<uint32_t> BfsDistances(const Graph& g, VertexId source);

}  // namespace qbs

#endif  // QBS_GRAPH_BFS_H_
