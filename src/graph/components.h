// Connected-component analysis and largest-component extraction.
//
// The paper (§2) assumes connected graphs; the dataset pipeline therefore
// reduces every generated or loaded graph to its largest connected component
// before indexing, exactly as is standard for the SNAP datasets.

#ifndef QBS_GRAPH_COMPONENTS_H_
#define QBS_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qbs {

struct ComponentInfo {
  // component[v] = id of v's connected component, in [0, num_components).
  std::vector<uint32_t> component;
  uint32_t num_components = 0;
  // sizes[c] = number of vertices in component c.
  std::vector<uint32_t> sizes;
  // Id of a largest component.
  uint32_t largest = 0;
};

// Labels every vertex with its connected component (BFS-based).
ComponentInfo ConnectedComponents(const Graph& g);

// Result of extracting an induced subgraph with relabelled vertices.
struct SubgraphResult {
  Graph graph;
  // to_original[new_id] = vertex id in the source graph.
  std::vector<VertexId> to_original;
};

// Induced subgraph on the largest connected component, vertices relabelled
// to a dense range.
SubgraphResult LargestComponent(const Graph& g);

// As above, reusing an already-computed component labelling of g — callers
// that inspect ConnectedComponents(g) first (e.g. the dataset converter
// deciding whether extraction is needed at all) avoid a second full-graph
// traversal.
SubgraphResult LargestComponent(const Graph& g, const ComponentInfo& info);

}  // namespace qbs

#endif  // QBS_GRAPH_COMPONENTS_H_
