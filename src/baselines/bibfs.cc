#include "baselines/bibfs.h"

#include "util/check.h"

namespace qbs {

BiBfs::BiBfs(const Graph& g) : g_(g), search_(g) {}

uint32_t BiBfs::Search(VertexId u, VertexId v, bool first_meet,
                       uint64_t* scans) {
  QBS_CHECK_LT(u, g_.NumVertices());
  QBS_CHECK_LT(v, g_.NumVertices());
  if (u == v) return 0;
  search_.Reset();
  search_.Seed(0, u);
  search_.Seed(1, v);
  uint64_t volume[2] = {g_.Degree(u), g_.Degree(v)};
  uint32_t d[2] = {0, 0};
  for (;;) {
    if (search_.levels(0).LevelSize(d[0]) == 0 ||
        search_.levels(1).LevelSize(d[1]) == 0) {
      return kUnreachable;  // disconnected
    }
    const int t = volume[0] <= volume[1] ? 0 : 1;
    // Only the meet set is read after a meet (rule A); a distance needs
    // only the first meet vertex (rule B).
    *scans += first_meet
                  ? search_.ExpandToFirstMeet(t).scanned
                  : search_.ExpandLevel(t, MeetRule::kMeetsAfterFirst).scanned;
    ++d[t];
    // The volume only steers the next expansion: a level that met is
    // never expanded, and may be partial.
    if (!search_.meet_set().empty()) return d[0] + d[1];
    volume[t] = 0;
    for (const VertexId w : search_.levels(t).Level(d[t])) {
      volume[t] += g_.Degree(w);
    }
  }
}

ShortestPathGraph BiBfs::Query(VertexId u, VertexId v,
                               uint64_t* edges_scanned) {
  uint64_t local_scans = 0;
  uint64_t* scans = edges_scanned != nullptr ? edges_scanned : &local_scans;
  ShortestPathGraph result;
  result.u = u;
  result.v = v;
  result.distance = Search(u, v, /*first_meet=*/false, scans);
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
  return Search(u, v, /*first_meet=*/true, &scans);
}

}  // namespace qbs
