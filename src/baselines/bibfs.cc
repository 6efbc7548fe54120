#include "baselines/bibfs.h"

#include "util/check.h"

namespace qbs {

BiBfs::BiBfs(const Graph& g) : g_(g), search_(g) {}

uint32_t BiBfs::Search(VertexId u, VertexId v, uint64_t* scans) {
  QBS_CHECK_LT(u, g_.NumVertices());
  QBS_CHECK_LT(v, g_.NumVertices());
  if (u == v) return 0;
  search_.Reset();
  search_.Seed(0, u);
  search_.Seed(1, v);
  uint64_t volume[2] = {g_.Degree(u), g_.Degree(v)};
  uint32_t d[2] = {0, 0};
  while (search_.meet_set().empty()) {
    if (search_.levels(0).LevelSize(d[0]) == 0 ||
        search_.levels(1).LevelSize(d[1]) == 0) {
      return kUnreachable;  // disconnected
    }
    const int t = volume[0] <= volume[1] ? 0 : 1;
    *scans += search_.ExpandLevel(t).scanned;
    ++d[t];
    volume[t] = 0;
    for (const VertexId w : search_.levels(t).Level(d[t])) {
      volume[t] += g_.Degree(w);
    }
  }
  return d[0] + d[1];
}

ShortestPathGraph BiBfs::Query(VertexId u, VertexId v,
                               uint64_t* edges_scanned) {
  uint64_t local_scans = 0;
  uint64_t* scans = edges_scanned != nullptr ? edges_scanned : &local_scans;
  ShortestPathGraph result;
  result.u = u;
  result.v = v;
  result.distance = Search(u, v, scans);
  if (result.distance == 0 || result.distance == kUnreachable) return result;

  search_.StartBackwardFromMeet(&result.edges);
  for (int t = 0; t < 2; ++t) {
    *scans += search_.RunBackwardWalk(t, &result.edges);
  }
  result.Normalize();
  return result;
}

uint32_t BiBfs::Distance(VertexId u, VertexId v) {
  uint64_t scans = 0;
  return Search(u, v, &scans);
}

}  // namespace qbs
