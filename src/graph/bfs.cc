#include "graph/bfs.h"

#include "util/check.h"

namespace qbs {

std::vector<uint32_t> BfsDistances(const Graph& g,
                                   std::span<const VertexId> sources) {
  std::vector<uint32_t> dist(g.NumVertices(), kUnreachable);
  std::vector<VertexId> queue;
  for (const VertexId source : sources) {
    QBS_CHECK_LT(source, g.NumVertices());
    if (dist[source] == 0) continue;
    dist[source] = 0;
    queue.push_back(source);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    for (const VertexId w : g.Neighbors(u)) {
      if (dist[w] != kUnreachable) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  return dist;
}

std::vector<uint32_t> BfsDistances(const Graph& g, VertexId source) {
  return BfsDistances(g, std::span<const VertexId>(&source, 1));
}

}  // namespace qbs
