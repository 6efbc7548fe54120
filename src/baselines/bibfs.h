// The Bi-BFS baseline (§6.1): an optimized bidirectional BFS answering
// SPG queries online with no precomputation [Goldberg & Harrelson 2005;
// Hayashi et al. 2016]. Expands the cheaper frontier (by degree volume)
// until the frontiers meet, then reconstructs all shortest paths with a
// reverse search over the two BFS level sets.
//
// This is what QbS's guided search degenerates to with zero landmarks; the
// paper's Table 2 compares query times against it. Level expansion, the
// meet set and the reverse walk are the guided search's own engine
// (BidirectionalSearch, graph/frontier.h), run here over G instead of G⁻,
// so the two differ only in how they pick the side to expand.

#ifndef QBS_BASELINES_BIBFS_H_
#define QBS_BASELINES_BIBFS_H_

#include <cstdint>

#include "graph/frontier.h"
#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs {

// Online bidirectional SPG search over a fixed graph. Holds reusable
// scratch sized to the graph; NOT thread-safe.
class BiBfs {
 public:
  explicit BiBfs(const Graph& g);

  // Exact SPG(u, v). `edges_scanned`, if non-null, is increased by the
  // number of adjacency entries inspected (search + reverse), for the §6.5
  // traversal comparison.
  ShortestPathGraph Query(VertexId u, VertexId v,
                          uint64_t* edges_scanned = nullptr);

  // d(u, v) by the same search, stopped at its first meet vertex, without
  // the reverse walk; kUnreachable if u and v are disconnected.
  uint32_t Distance(VertexId u, VertexId v);

 private:
  // Runs the bidirectional search from u and v until the frontiers meet,
  // always expanding the side whose frontier has the smaller degree volume.
  // With `first_meet` it stops at the first meet vertex, which leaves no
  // meet set to walk back from. Returns d(u, v), or kUnreachable; adds the
  // edges scanned to *scans.
  uint32_t Search(VertexId u, VertexId v, bool first_meet, uint64_t* scans);

  const Graph& g_;
  BidirectionalSearch search_;
};

}  // namespace qbs

#endif  // QBS_BASELINES_BIBFS_H_
