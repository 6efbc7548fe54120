#include "core/delta_cache.h"

#include <unordered_set>

#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {

std::vector<Edge> RecoverMetaSegment(const Graph& g, const PathLabeling& l,
                                     const MetaEdge& e) {
  std::vector<Edge> edges;
  const VertexId a_vertex = l.LandmarkVertex(e.a);
  const VertexId b_vertex = l.LandmarkVertex(e.b);
  if (e.weight == 1) {
    edges.emplace_back(a_vertex, b_vertex);
    return edges;
  }

  // Internal vertices of landmark-free shortest a–b paths are exactly the
  // non-landmarks w with δ_{w,a} = level and δ_{w,b} = weight − level: the
  // two label entries certify landmark-free shortest half-paths that
  // concatenate to length d_G(a, b). Expand level by level starting from
  // a's neighbourhood; each valid level-(l+1) vertex is adjacent to a valid
  // level-l vertex (its predecessor on such a path), so the frontier walk
  // is complete.
  std::vector<VertexId> frontier;
  std::unordered_set<VertexId> seen;
  for (VertexId w : g.Neighbors(a_vertex)) {
    if (l.IsLandmark(w)) continue;
    if (l.Get(w, e.a) == 1 &&
        l.Get(w, e.b) == static_cast<DistT>(e.weight - 1)) {
      edges.emplace_back(a_vertex, w);
      if (seen.insert(w).second) frontier.push_back(w);
    }
  }
  for (uint32_t level = 1; level + 1 < e.weight; ++level) {
    std::vector<VertexId> next;
    for (VertexId x : frontier) {
      for (VertexId y : g.Neighbors(x)) {
        if (l.IsLandmark(y)) continue;
        if (l.Get(y, e.a) == static_cast<DistT>(level + 1) &&
            l.Get(y, e.b) == static_cast<DistT>(e.weight - level - 1)) {
          edges.emplace_back(x, y);
          if (seen.insert(y).second) next.push_back(y);
        }
      }
    }
    frontier = std::move(next);
  }
  // The final frontier holds the level (weight-1) vertices: each is
  // adjacent to b (its label distance to b is 1).
  for (VertexId x : frontier) {
    QBS_DCHECK(l.Get(x, e.b) == 1);
    edges.emplace_back(x, b_vertex);
  }
  return edges;
}

DeltaCache DeltaCache::Build(const Graph& g, const PathLabeling& labeling,
                             const MetaGraph& meta, size_t num_threads) {
  DeltaCache cache;
  const auto& edges = meta.Edges();
  std::vector<std::vector<Edge>> segments(edges.size());
  ParallelFor(edges.size(), num_threads, [&](size_t i, size_t) {
    segments[i] = RecoverMetaSegment(g, labeling, edges[i]);
  });
  for (size_t i = 0; i < edges.size(); ++i) {
    cache.segments_.emplace(Key(edges[i].a, edges[i].b),
                            std::move(segments[i]));
  }
  return cache;
}

uint64_t DeltaCache::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& [key, edges] : segments_) {
    (void)key;
    bytes += edges.size() * sizeof(Edge);
  }
  return bytes;
}

}  // namespace qbs
