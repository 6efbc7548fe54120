#include "baselines/ppl.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/timer.h"

namespace qbs {

std::optional<PplIndex> PplIndex::Build(const Graph& g,
                                        const PplBuildOptions& options,
                                        BuildStatus* status) {
  BuildStatus local_status;
  if (status == nullptr) status = &local_status;
  *status = BuildStatus::kOk;

  PplIndex index;
  index.g_ = &g;
  const VertexId n = g.NumVertices();
  index.labels_.resize(n);
  index.order_.resize(n);
  std::iota(index.order_.begin(), index.order_.end(), 0);
  std::sort(index.order_.begin(), index.order_.end(),
            [&g](VertexId a, VertexId b) {
              const uint32_t da = g.Degree(a);
              const uint32_t db = g.Degree(b);
              return da != db ? da > db : a < b;
            });

  WallTimer timer;
  uint64_t total_entries = 0;

  // Scratch reused across pruned BFSs: the queue doubles as the touched
  // list, so the reset between roots is O(visited), not O(|V|). Every
  // visit runs a pruning decision, so the BFS cannot switch direction.
  std::vector<uint32_t> depth(n, kUnreachable);
  std::vector<VertexId> queue;
  queue.reserve(n);
  // root_dist[r] = distance from the current root to landmark r according
  // to the root's own label (dense view for O(1) lookups during pruning).
  std::vector<uint32_t> root_dist(n, kUnreachable);

  for (uint32_t k = 0; k < n; ++k) {
    const VertexId root = index.order_[k];
    // Load the root's current label (entries from ranks < k).
    for (const PplEntry& e : index.labels_[root]) {
      root_dist[e.rank] = e.dist;
    }

    // Pruned BFS (Algorithm 1).
    queue.push_back(root);
    depth[root] = 0;
    size_t head = 0;
    while (head < queue.size()) {
      const VertexId u = queue[head++];
      const uint32_t du = depth[u];
      // d_{L_{k-1}}(root, u) by merging u's label against the dense root
      // view.
      uint32_t via_labels = kUnreachable;
      for (const PplEntry& e : index.labels_[u]) {
        const uint32_t rd = root_dist[e.rank];
        if (rd != kUnreachable) {
          via_labels = std::min(via_labels, rd + e.dist);
        }
      }
      if (via_labels < du) continue;  // prune: already covered
      index.labels_[u].push_back(PplEntry{k, du});
      ++total_entries;
      if (via_labels == du) continue;  // covered paths: label, don't expand
      for (VertexId w : g.Neighbors(u)) {
        if (depth[w] == kUnreachable) {
          depth[w] = du + 1;
          queue.push_back(w);
        }
      }
    }

    // Reset scratch touched by this BFS.
    for (VertexId v : queue) depth[v] = kUnreachable;
    queue.clear();
    for (const PplEntry& e : index.labels_[root]) {
      root_dist[e.rank] = kUnreachable;
    }

    if (options.max_label_entries > 0 &&
        total_entries > options.max_label_entries) {
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

uint32_t PplIndex::QueryDistance(VertexId u, VertexId v) const {
  QBS_CHECK_LT(u, labels_.size());
  QBS_CHECK_LT(v, labels_.size());
  if (u == v) return 0;
  uint32_t best = kUnreachable;
  ForEachCommonLandmark(u, v, [&best](uint32_t, uint32_t dist) {
    best = std::min(best, dist);
  });
  return best;
}

void PplIndex::Expand(VertexId u, VertexId v, std::vector<Edge>* edges,
                      std::unordered_set<uint64_t>* visited_pairs) const {
  if (!visited_pairs->insert(UnorderedPairKey(u, v)).second) return;

  const uint32_t d = QueryDistance(u, v);
  if (d == 0 || d == kUnreachable) return;
  if (d == 1) {
    edges->emplace_back(u, v);
    return;
  }
  // V_uv: common landmarks realizing the distance (the paper's recursive
  // decomposition). Pruning does not guarantee an internal common landmark
  // on *every* shortest path, so this covers most but possibly not all
  // paths.
  ForEachCommonLandmark(u, v, [&](uint32_t rank, uint32_t dist) {
    const VertexId r = order_[rank];
    if (dist == d && r != u && r != v) {
      Expand(u, r, edges, visited_pairs);
      Expand(r, v, edges, visited_pairs);
    }
  });
  // Neighbour-step completion: every neighbour of u one hop closer to v is
  // on a shortest path (exact label distance check), guaranteeing no path
  // escapes even when no internal landmark covers it.
  for (VertexId z : g_->Neighbors(u)) {
    if (QueryDistance(z, v) + 1 == d) {
      edges->emplace_back(u, z);
      Expand(z, v, edges, visited_pairs);
    }
  }
}

ShortestPathGraph PplIndex::QuerySpg(VertexId u, VertexId v) const {
  ShortestPathGraph spg;
  spg.u = u;
  spg.v = v;
  spg.distance = QueryDistance(u, v);
  if (spg.distance == kUnreachable || u == v) return spg;
  std::unordered_set<uint64_t> visited_pairs;
  Expand(u, v, &spg.edges, &visited_pairs);
  spg.Normalize();
  return spg;
}

uint64_t PplIndex::NumEntries() const {
  uint64_t total = 0;
  for (const auto& l : labels_) total += l.size();
  return total;
}

}  // namespace qbs
