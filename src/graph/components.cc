#include "graph/components.h"

#include <algorithm>

#include "util/check.h"

namespace qbs {

ComponentInfo ConnectedComponents(const Graph& g) {
  ComponentInfo info;
  const VertexId n = g.NumVertices();
  info.component.assign(n, UINT32_MAX);
  std::vector<VertexId> queue;
  for (VertexId start = 0; start < n; ++start) {
    if (info.component[start] != UINT32_MAX) continue;
    const uint32_t c = info.num_components++;
    uint32_t size = 0;
    queue.clear();
    queue.push_back(start);
    info.component[start] = c;
    size_t head = 0;
    while (head < queue.size()) {
      const VertexId u = queue[head++];
      ++size;
      for (VertexId w : g.Neighbors(u)) {
        if (info.component[w] == UINT32_MAX) {
          info.component[w] = c;
          queue.push_back(w);
        }
      }
    }
    info.sizes.push_back(size);
  }
  if (info.num_components > 0) {
    info.largest = static_cast<uint32_t>(
        std::max_element(info.sizes.begin(), info.sizes.end()) -
        info.sizes.begin());
  }
  return info;
}

SubgraphResult LargestComponent(const Graph& g) {
  if (g.NumVertices() == 0) return {};
  return LargestComponent(g, ConnectedComponents(g));
}

SubgraphResult LargestComponent(const Graph& g, const ComponentInfo& info) {
  SubgraphResult result;
  if (g.NumVertices() == 0) return result;
  QBS_CHECK_EQ(info.component.size(), g.NumVertices());

  std::vector<VertexId> to_new(g.NumVertices(), UINT32_MAX);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (info.component[v] == info.largest) {
      to_new[v] = static_cast<VertexId>(result.to_original.size());
      result.to_original.push_back(v);
    }
  }
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (to_new[v] == UINT32_MAX) continue;
    for (VertexId w : g.Neighbors(v)) {
      if (v < w && to_new[w] != UINT32_MAX) {
        edges.emplace_back(to_new[v], to_new[w]);
      }
    }
  }
  result.graph = Graph::FromEdges(
      static_cast<VertexId>(result.to_original.size()), std::move(edges));
  return result;
}

}  // namespace qbs
