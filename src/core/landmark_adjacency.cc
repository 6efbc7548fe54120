#include "core/landmark_adjacency.h"

namespace qbs {

LandmarkAdjacency LandmarkAdjacency::Build(const Graph& g,
                                           const PathLabeling& labeling) {
  LandmarkAdjacency adjacency;
  adjacency.row_words_ = (static_cast<size_t>(g.NumVertices()) + 63) / 64;
  adjacency.words_.assign(adjacency.row_words_ * labeling.num_landmarks(), 0);
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    for (const VertexId w : g.Neighbors(labeling.LandmarkVertex(i))) {
      adjacency.Assign(i, w, true);
    }
  }
  return adjacency;
}

void LandmarkAdjacency::Apply(const NetChanges& net,
                              const PathLabeling& labeling) {
  for (const bool adjacent : {true, false}) {
    for (const Edge& e : adjacent ? net.inserts : net.deletes) {
      if (labeling.IsLandmark(e.u)) {
        Assign(static_cast<LandmarkIndex>(labeling.LandmarkRank(e.u)), e.v,
               adjacent);
      }
      if (labeling.IsLandmark(e.v)) {
        Assign(static_cast<LandmarkIndex>(labeling.LandmarkRank(e.v)), e.u,
               adjacent);
      }
    }
  }
}

void LandmarkAdjacency::Assign(LandmarkIndex i, VertexId w, bool adjacent) {
  uint64_t& word = words_[static_cast<size_t>(i) * row_words_ + w / 64];
  const uint64_t bit = uint64_t{1} << (w % 64);
  word = adjacent ? word | bit : word & ~bit;
}

}  // namespace qbs
