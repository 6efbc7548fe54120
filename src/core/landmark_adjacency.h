// Landmark adjacency: one bit per (landmark, vertex), set iff the vertex
// is adjacent to that landmark in G.
//
// The recover search's Z-pair test (Algorithm 4, Lines 19-23) asks, for a
// level vertex w at depth dm = σ−1 below an anchor (r, σ), whether
// δ(w, r) + dm = σ, i.e. whether δ(w, r) = 1. A non-landmark w has label
// entry (r, 1) iff w is adjacent to r (the one-edge path passes through
// no other landmark), and search levels hold non-landmarks only. So the
// test is one bit of r's row instead of one label row per level vertex.
//
// The bits are a read-only copy of the landmarks' adjacency, a function of
// G and R: they are never serialized and never counted in size(L), and
// the index derives them afresh with Build after a build, a load and every
// edit alike. Each landmark's row is |V| bits, so the row a Z loop reads
// stays in cache.

#ifndef QBS_CORE_LANDMARK_ADJACENCY_H_
#define QBS_CORE_LANDMARK_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/types.h"
#include "graph/graph.h"

namespace qbs {

class LandmarkAdjacency {
 public:
  LandmarkAdjacency() = default;

  // Sets the bit of every (r, w) with r ∈ R adjacent to w in `g`, in
  // O(|R|·|V|/64 + Σ_r deg r).
  static LandmarkAdjacency Build(const Graph& g, const PathLabeling& labeling);

  // True iff vertex w is adjacent to the i-th landmark.
  bool Adjacent(LandmarkIndex i, VertexId w) const {
    const uint64_t word = words_[static_cast<size_t>(i) * row_words_ + w / 64];
    return (word >> (w % 64)) & 1;
  }

  // Bytes of the bit rows: |R| rows of |V| bits, rounded up to 64-bit
  // words.
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t row_words_ = 0;  // ceil(|V| / 64)
  std::vector<uint64_t> words_;  // landmark-major: row i = bits of r_i
};

}  // namespace qbs

#endif  // QBS_CORE_LANDMARK_ADJACENCY_H_
