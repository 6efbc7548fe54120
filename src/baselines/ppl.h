// PPL — Pruned Path Labelling (§3.2, Algorithm 1).
//
// A pruned-BFS 2-hop labelling in the style of Pruned Landmark Labelling
// [Akiba et al. 2013], adapted to guarantee the *2-hop path cover* property
// (Definition 3.2): unlike PLL, a label is still added when the query
// distance equals the BFS depth (only expansion stops), so every shortest
// path — not just one — is covered by label entries.
//
// SPG queries are answered by recursive decomposition at minimizing common
// landmarks (the paper's §3.2 procedure, Example 3.4), completed by a
// neighbour-step expansion: pruning can leave a shortest path without an
// internal common landmark in the labels, so decomposition alone may miss
// edges; stepping to neighbours one hop closer (verified by exact label
// distance queries) restores completeness while keeping — indeed adding to —
// the redundant label-scan cost profile the paper attributes to PPL. The
// paper shows this method fails to scale (DNF/OOE on 7 of 12 datasets);
// build budgets reproduce that behaviour gracefully.

#ifndef QBS_BASELINES_PPL_H_
#define QBS_BASELINES_PPL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs {

// Why a labelling build stopped.
enum class BuildStatus {
  kOk,
  kTimeBudgetExceeded,    // the paper's DNF (>24h there; configurable here)
  kMemoryBudgetExceeded,  // the paper's OOE
};

struct PplBuildOptions {
  // Wall-clock budget for construction; exceeded => kTimeBudgetExceeded.
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  // Cap on total label entries (each 8 bytes); exceeded =>
  // kMemoryBudgetExceeded. 0 = unlimited.
  uint64_t max_label_entries = 0;
};

// One labelling entry: the landmark is identified by its position in the
// degree-descending landmark order (so per-vertex entry lists are sorted by
// rank and intersect by merging).
struct PplEntry {
  uint32_t rank = 0;
  uint32_t dist = 0;
};

// Memo key of the unordered vertex pair {a, b}: both SPG decompositions
// expand each pair once.
inline uint64_t UnorderedPairKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

class PplIndex {
 public:
  // Builds the full pruned path labelling (every vertex is a potential
  // landmark, processed in decreasing-degree order). Returns std::nullopt
  // and sets *status when a budget is exceeded. `g` must outlive the index.
  static std::optional<PplIndex> Build(const Graph& g,
                                       const PplBuildOptions& options = {},
                                       BuildStatus* status = nullptr);

  // Exact distance via label intersection; kUnreachable if disconnected.
  uint32_t QueryDistance(VertexId u, VertexId v) const;

  // Exact SPG via recursive decomposition at common landmarks.
  ShortestPathGraph QuerySpg(VertexId u, VertexId v) const;

  // Calls fn(rank, dist) for every landmark rank in both labels of u and v,
  // in increasing rank, where dist is the sum of the two entries'
  // distances. The one label merge behind QueryDistance and both SPG
  // decompositions (PPL's and ParentPPL's).
  template <typename Fn>
  void ForEachCommonLandmark(VertexId u, VertexId v, Fn&& fn) const {
    const auto& lu = labels_[u];
    const auto& lv = labels_[v];
    size_t i = 0;
    size_t j = 0;
    while (i < lu.size() && j < lv.size()) {
      if (lu[i].rank < lv[j].rank) {
        ++i;
      } else if (lu[i].rank > lv[j].rank) {
        ++j;
      } else {
        fn(lu[i].rank, lu[i].dist + lv[j].dist);
        ++i;
        ++j;
      }
    }
  }

  const Graph& graph() const { return *g_; }
  const std::vector<PplEntry>& Label(VertexId v) const { return labels_[v]; }
  // Vertex id of the landmark with the given order rank.
  VertexId LandmarkVertex(uint32_t rank) const { return order_[rank]; }

  uint64_t NumEntries() const;
  // Bytes of all labelling entries (Table 3 footprint: 32-bit landmark +
  // 8-bit distance per entry in the paper; we store 32+32).
  uint64_t SizeBytes() const { return NumEntries() * sizeof(PplEntry); }

 private:
  PplIndex() = default;

  // Recursive SPG expansion with pair memoization.
  void Expand(VertexId u, VertexId v, std::vector<Edge>* edges,
              std::unordered_set<uint64_t>* visited_pairs) const;

  const Graph* g_ = nullptr;  // not owned
  std::vector<std::vector<PplEntry>> labels_;
  std::vector<VertexId> order_;  // rank -> vertex (degree-descending)
};

}  // namespace qbs

#endif  // QBS_BASELINES_PPL_H_
