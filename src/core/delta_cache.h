// Precomputed shortest path graphs between landmarks (the Δ of Table 3 and
// §5.2): for every meta-edge (r, r'), the union of all shortest r–r' paths
// in G that pass through no other landmark. Every QbsIndex builds Δ (and
// rebuilds it after each update); the recover search splices these
// segments and never derives one itself, realizing the §6.5(3) efficiency
// source ("QbS can avoid the computation of shortest paths between
// high-degree landmarks ... since these shortest paths can be
// precomputed").

#ifndef QBS_CORE_DELTA_CACHE_H_
#define QBS_CORE_DELTA_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/labeling.h"
#include "core/meta_graph.h"
#include "graph/graph.h"

namespace qbs {

// Computes the landmark-free shortest path graph of one meta-edge via
// label-guided frontier expansion: Δ's per-segment builder.
std::vector<Edge> RecoverMetaSegment(const Graph& g, const PathLabeling& l,
                                     const MetaEdge& e);

class DeltaCache {
 public:
  DeltaCache() = default;

  // Precomputes the segment for every meta-edge, in parallel.
  static DeltaCache Build(const Graph& g, const PathLabeling& labeling,
                          const MetaGraph& meta, size_t num_threads);

  // Cached segment edges for meta-edge (a, b); nullptr if (a, b) is not a
  // meta-edge.
  const std::vector<Edge>* Lookup(LandmarkIndex a, LandmarkIndex b) const {
    const auto it = segments_.find(Key(a, b));
    return it == segments_.end() ? nullptr : &it->second;
  }

  // size(Δ): bytes of all cached segment edges.
  uint64_t SizeBytes() const;

  size_t NumSegments() const { return segments_.size(); }

 private:
  static uint64_t Key(LandmarkIndex a, LandmarkIndex b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::unordered_map<uint64_t, std::vector<Edge>> segments_;
};

}  // namespace qbs

#endif  // QBS_CORE_DELTA_CACHE_H_
