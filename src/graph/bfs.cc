#include "graph/bfs.h"

#include "util/check.h"

namespace qbs {

std::vector<uint32_t> BfsDistances(const Graph& g, VertexId source) {
  QBS_CHECK_LT(source, g.NumVertices());
  std::vector<uint32_t> dist(g.NumVertices(), kUnreachable);
  std::vector<VertexId> queue{source};
  dist[source] = 0;
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

}  // namespace qbs
