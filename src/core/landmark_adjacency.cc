#include "core/landmark_adjacency.h"

namespace qbs {

LandmarkAdjacency LandmarkAdjacency::Build(const Graph& g,
                                           const PathLabeling& labeling) {
  LandmarkAdjacency adjacency;
  adjacency.row_words_ = (static_cast<size_t>(g.NumVertices()) + 63) / 64;
  adjacency.words_.assign(adjacency.row_words_ * labeling.num_landmarks(), 0);
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    uint64_t* row = adjacency.words_.data() + i * adjacency.row_words_;
    for (const VertexId w : g.Neighbors(labeling.LandmarkVertex(i))) {
      row[w / 64] |= uint64_t{1} << (w % 64);
    }
  }
  return adjacency;
}

}  // namespace qbs
