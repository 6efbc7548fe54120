#include "baselines/parent_ppl.h"

#include <algorithm>
#include <utility>

#include "graph/bfs.h"
#include "util/timer.h"

namespace qbs {

std::optional<ParentPplIndex> ParentPplIndex::Build(
    const Graph& g, const PplBuildOptions& options, BuildStatus* status) {
  BuildStatus local_status;
  if (status == nullptr) status = &local_status;
  WallTimer timer;
  std::optional<PplIndex> ppl = PplIndex::Build(g, options, status);
  if (!ppl.has_value()) return std::nullopt;

  ParentPplIndex index(std::move(*ppl));
  const PplIndex& labels = index.ppl_;
  const VertexId n = g.NumVertices();

  // Number the entries vertex by vertex, and list them by landmark rank:
  // by_rank[rank_begin[k], rank_begin[k + 1]) holds the (vertex, label
  // position) of every rank-k entry.
  index.first_entry_.resize(n);
  std::vector<uint64_t> rank_begin(n + 1, 0);
  uint64_t num_entries = 0;
  for (VertexId v = 0; v < n; ++v) {
    index.first_entry_[v] = num_entries;
    num_entries += labels.Label(v).size();
    for (const PplEntry& e : labels.Label(v)) ++rank_begin[e.rank + 1];
  }
  for (VertexId k = 0; k < n; ++k) rank_begin[k + 1] += rank_begin[k];
  std::vector<std::pair<VertexId, uint32_t>> by_rank(num_entries);
  std::vector<uint64_t> cursor(rank_begin.begin(), rank_begin.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto& label = labels.Label(v);
    for (uint32_t j = 0; j < label.size(); ++j) {
      by_rank[cursor[label[j].rank]++] = {v, j};
    }
  }
  index.ranges_.resize(num_entries);

  // landmark_dist[r] = δ(r_k, r) for the entries of r_k's label of rank
  // <= k, kUnreachable elsewhere.
  std::vector<uint32_t> landmark_dist(n, kUnreachable);
  for (uint32_t k = 0; k < n; ++k) {
    const auto& root_label = labels.Label(labels.LandmarkVertex(k));
    for (const PplEntry& e : root_label) {
      if (e.rank > k) break;
      landmark_dist[e.rank] = e.dist;
    }
    // Whether w's entries of rank <= k route it to r_k in `dist` steps. No
    // route is shorter than d(r_k, w), and a neighbour of a vertex at
    // distance dist + 1 is no closer than dist, so any hit is the minimum.
    const auto at_distance = [&](VertexId w, uint32_t dist) {
      for (const PplEntry& e : labels.Label(w)) {
        if (e.rank > k) break;
        const uint32_t ld = landmark_dist[e.rank];
        if (ld != kUnreachable && ld + e.dist == dist) return true;
      }
      return false;
    };
    for (uint64_t i = rank_begin[k]; i < rank_begin[k + 1]; ++i) {
      const auto [v, j] = by_rank[i];
      const uint32_t d = labels.Label(v)[j].dist;
      const uint64_t begin = index.parents_.size();
      if (d > 0) {
        for (VertexId w : g.Neighbors(v)) {
          if (at_distance(w, d - 1)) index.parents_.push_back(w);
        }
      }
      index.ranges_[index.first_entry_[v] + j] = {
          begin, static_cast<uint32_t>(index.parents_.size() - begin)};
    }
    for (const PplEntry& e : root_label) {
      if (e.rank > k) break;
      landmark_dist[e.rank] = kUnreachable;
    }

    if (options.max_label_entries > 0 &&
        num_entries + index.parents_.size() > options.max_label_entries) {
      *status = BuildStatus::kMemoryBudgetExceeded;
      return std::nullopt;
    }
    if (timer.ElapsedSeconds() > options.time_budget_seconds) {
      *status = BuildStatus::kTimeBudgetExceeded;
      return std::nullopt;
    }
  }
  return index;
}

void ParentPplIndex::Walk(VertexId x, uint32_t rank, std::vector<Edge>* edges,
                          std::unordered_set<uint64_t>* visited_pairs) const {
  const VertexId target = ppl_.LandmarkVertex(rank);
  if (x == target) return;
  const auto& label = ppl_.Label(x);
  const auto it = std::lower_bound(
      label.begin(), label.end(), rank,
      [](const PplEntry& e, uint32_t r) { return e.rank < r; });
  if (it == label.end() || it->rank != rank) {
    // x's label was pruned for this landmark: fall back to decomposition.
    Expand(x, target, edges, visited_pairs);
    return;
  }
  if (!visited_pairs->insert(UnorderedPairKey(x, target)).second) return;
  if (it->dist == 1) {
    edges->emplace_back(x, target);
    return;
  }
  for (VertexId w : Parents(x, it - label.begin())) {
    edges->emplace_back(x, w);
    Walk(w, rank, edges, visited_pairs);
  }
}

void ParentPplIndex::Expand(VertexId u, VertexId v, std::vector<Edge>* edges,
                            std::unordered_set<uint64_t>* visited_pairs) const {
  if (!visited_pairs->insert(UnorderedPairKey(u, v)).second) return;
  const uint32_t d = ppl_.QueryDistance(u, v);
  if (d == 0 || d == kUnreachable) return;
  if (d == 1) {
    edges->emplace_back(u, v);
    return;
  }
  ppl_.ForEachCommonLandmark(u, v, [&](uint32_t rank, uint32_t dist) {
    const VertexId r = ppl_.LandmarkVertex(rank);
    if (dist == d && r != u && r != v) {
      Walk(u, rank, edges, visited_pairs);
      Walk(v, rank, edges, visited_pairs);
    }
  });
  // Neighbour-step completion (see PplIndex::Expand): parent walks only
  // cover paths with an internal common landmark in the labels.
  for (VertexId z : ppl_.graph().Neighbors(u)) {
    if (ppl_.QueryDistance(z, v) + 1 == d) {
      edges->emplace_back(u, z);
      Expand(z, v, edges, visited_pairs);
    }
  }
}

ShortestPathGraph ParentPplIndex::QuerySpg(VertexId u, VertexId v) const {
  ShortestPathGraph spg;
  spg.u = u;
  spg.v = v;
  spg.distance = ppl_.QueryDistance(u, v);
  if (spg.distance == kUnreachable || u == v) return spg;
  std::unordered_set<uint64_t> visited_pairs;
  Expand(u, v, &spg.edges, &visited_pairs);
  spg.Normalize();
  return spg;
}

}  // namespace qbs
