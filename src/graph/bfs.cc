#include "graph/bfs.h"

#include "graph/frontier.h"

namespace qbs {

std::vector<uint32_t> BfsDistances(const Graph& g, VertexId source) {
  // Per-thread traversal scratch, so tight loops of full-graph BFSs
  // (oracle queries) pay no per-call frontier allocation.
  static thread_local FrontierEngine engine;
  std::vector<uint32_t> dist;
  engine.Distances(g, source, kUnreachable - 1, &dist);
  return dist;
}

}  // namespace qbs
