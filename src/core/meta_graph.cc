#include "core/meta_graph.h"

#include <algorithm>

#include "util/check.h"

namespace qbs {

MetaGraph::MetaGraph(uint32_t num_landmarks) : k_(num_landmarks) {
  weight_.assign(static_cast<size_t>(k_) * k_, kUnreachable);
  for (LandmarkIndex i = 0; i < k_; ++i) weight_[Idx(i, i)] = 0;
}

void MetaGraph::AddEdge(LandmarkIndex a, LandmarkIndex b, uint32_t weight) {
  QBS_CHECK(!finalized_);
  QBS_CHECK_LT(a, k_);
  QBS_CHECK_LT(b, k_);
  QBS_CHECK_NE(a, b);
  QBS_CHECK_GT(weight, 0u);
  if (a > b) std::swap(a, b);
  const uint32_t existing = weight_[Idx(a, b)];
  if (existing != kUnreachable) {
    // Rediscovery from the other endpoint's BFS must agree.
    QBS_CHECK_EQ(existing, weight);
    return;
  }
  weight_[Idx(a, b)] = weight;
  weight_[Idx(b, a)] = weight;
  edges_.push_back(MetaEdge{a, b, weight});
}

void MetaGraph::Finalize() {
  QBS_CHECK(!finalized_);
  std::sort(edges_.begin(), edges_.end());
  dist_ = weight_;
  // Floyd–Warshall; k_ <= ~100, so k^3 is negligible next to labelling.
  for (LandmarkIndex m = 0; m < k_; ++m) {
    for (LandmarkIndex i = 0; i < k_; ++i) {
      const uint32_t dim = dist_[Idx(i, m)];
      if (dim == kUnreachable) continue;
      for (LandmarkIndex j = 0; j < k_; ++j) {
        const uint32_t dmj = dist_[Idx(m, j)];
        if (dmj == kUnreachable) continue;
        const uint32_t via = dim + dmj;
        if (via < dist_[Idx(i, j)]) dist_[Idx(i, j)] = via;
      }
    }
  }
  finalized_ = true;
}

bool MetaGraph::EdgeOnShortestPath(const MetaEdge& e, LandmarkIndex s,
                                   LandmarkIndex t) const {
  QBS_DCHECK(finalized_);
  const uint32_t dst = Distance(s, t);
  if (dst == kUnreachable) return false;
  const uint32_t sa = Distance(s, e.a);
  const uint32_t sb = Distance(s, e.b);
  const uint32_t at = Distance(e.a, t);
  const uint32_t bt = Distance(e.b, t);
  if (sa != kUnreachable && bt != kUnreachable &&
      sa + e.weight + bt == dst) {
    return true;
  }
  if (sb != kUnreachable && at != kUnreachable &&
      sb + e.weight + at == dst) {
    return true;
  }
  return false;
}

void MetaGraph::OnPathLandmarks(LandmarkIndex s, LandmarkIndex t,
                                std::vector<LandmarkIndex>* out) const {
  QBS_DCHECK(finalized_);
  out->clear();
  const uint32_t dst = Distance(s, t);
  if (dst == kUnreachable) return;
  for (LandmarkIndex x = 0; x < k_; ++x) {
    const uint32_t sx = Distance(s, x);
    const uint32_t xt = Distance(x, t);
    if (sx != kUnreachable && xt != kUnreachable && sx + xt == dst) {
      out->push_back(x);
    }
  }
}

uint64_t MetaGraph::SizeBytes() const {
  return edges_.size() * sizeof(MetaEdge) + weight_.size() * sizeof(uint32_t);
}

}  // namespace qbs
