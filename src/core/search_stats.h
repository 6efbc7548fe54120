// Counters describing the work a single query performed. These back the
// §6.5 ablation (edges traversed by QbS vs. Bi-BFS) and the Fig. 8 pair
// coverage analysis.

#ifndef QBS_CORE_SEARCH_STATS_H_
#define QBS_CORE_SEARCH_STATS_H_

#include <cstdint>

#include "graph/bfs.h"

namespace qbs {

// Which of the three cases of Eq. 5 a query fell into, i.e. how landmarks
// covered the pair (Fig. 8's categories).
enum class PairCoverage {
  // All shortest paths pass through >= 1 landmark (d_G⁻ > d⊤).
  kAllThroughLandmarks,
  // Some but not all shortest paths pass through a landmark (d_G⁻ == d⊤).
  kSomeThroughLandmarks,
  // No shortest path passes through a landmark (d_G⁻ < d⊤).
  kNoneThroughLandmarks,
  // u and v are disconnected.
  kDisconnected,
};

struct SearchStats {
  // Edge scans during the sketch-guided bi-directional search on G⁻.
  uint64_t edges_scanned_search = 0;
  // Adjacency entries skipped because the endpoint is a landmark (the
  // edges sparsification removed).
  uint64_t landmark_edges_skipped = 0;
  // Edge scans during the reverse search (G⁻ paths). Each level of the
  // backward walk walks top-down, counting the G⁻ degrees of its on-path
  // vertices, when their G degrees are at most the edges the forward
  // search scanned expanding the level below, and otherwise bottom-up,
  // counting those. The meeting level is never walked: the search recorded
  // the meet edges as it scanned them, so the side that met starts one
  // level below the meet set. Never more than edges_scanned_search.
  uint64_t edges_scanned_reverse = 0;
  // Edge scans during the recover search (G^L paths), excluding Δ-cache
  // hits.
  uint64_t edges_scanned_recover = 0;
  // Segments served from the precomputed Δ cache.
  uint64_t delta_cache_hits = 0;
  // These three always read 0: every pair runs the guided search, so no
  // d <= 2 pair is resolved directly or answered from the labels alone,
  // and nothing prunes the search by label bounds. Kept, and left out of
  // the totals, because bench_e2e (frozen by BENCHMARK.json) reads them.
  uint64_t edges_scanned_direct = 0;
  uint64_t label_short_circuits = 0;
  uint64_t lb_prunes = 0;

  uint32_t d_top = kUnreachable;         // sketch upper bound d⊤
  uint32_t d_sparsified = kUnreachable;  // d_G⁻(u, v) when determined
  PairCoverage coverage = PairCoverage::kDisconnected;

  uint64_t TotalEdgesScanned() const {
    return edges_scanned_search + edges_scanned_reverse +
           edges_scanned_recover;
  }

  void Accumulate(const SearchStats& o) {
    edges_scanned_search += o.edges_scanned_search;
    landmark_edges_skipped += o.landmark_edges_skipped;
    edges_scanned_reverse += o.edges_scanned_reverse;
    edges_scanned_recover += o.edges_scanned_recover;
    delta_cache_hits += o.delta_cache_hits;
  }
};

}  // namespace qbs

#endif  // QBS_CORE_SEARCH_STATS_H_
