// Landmark selection (§6.1 "Landmarks").
//
// The paper selects the |R| highest-degree vertices: removing them sparsifies
// the graph the most, and distances through high-degree hubs estimate true
// distances well [Potamias et al. 2009]. Any other set goes through
// QbsIndex::BuildWithLandmarks.

#ifndef QBS_CORE_LANDMARK_SELECTION_H_
#define QBS_CORE_LANDMARK_SELECTION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qbs {

// Returns the `count` highest-degree vertices, ties to the lower id, in
// that order. `count` is clamped to the number of vertices.
std::vector<VertexId> SelectLandmarks(const Graph& g, uint32_t count);

}  // namespace qbs

#endif  // QBS_CORE_LANDMARK_SELECTION_H_
