// Social-tie strength analysis — the paper's Figure 1 motivation.
//
// Two pairs of users at the same distance are indistinguishable by a
// point-to-point shortest path query, but their shortest path *graphs*
// reveal how strongly they are connected: many parallel shortest paths
// mean many independent social routes (strong structural tie); a single
// path means a fragile connection.
//
//   $ ./examples/social_tie_strength

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/qbs_index.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

int main() {
  // A social-network stand-in (LiveJournal-like preferential attachment).
  const qbs::Graph graph =
      qbs::MakeDataset(qbs::DatasetByAbbrev("LJ"), /*scale=*/0.5);
  std::printf("social network: %u users, %llu friendships\n",
              graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  qbs::QbsOptions options;
  options.num_threads = 0;
  qbs::QbsIndex index = qbs::QbsIndex::Build(graph, options);

  // Collect pairs at the same distance and compare their tie structure.
  struct Tie {
    qbs::VertexId u, v;
    uint64_t paths;
    size_t spg_vertices;
    size_t critical;  // vertices every shortest path depends on
  };
  constexpr uint32_t kTargetDistance = 4;
  std::vector<Tie> ties;
  for (const auto& [u, v] : qbs::SampleQueryPairs(graph, 4000, 11)) {
    const auto spg = index.Query({u, v}).spg;
    if (spg.distance != kTargetDistance) continue;
    ties.push_back(Tie{u, v, spg.CountShortestPaths(),
                       spg.Vertices().size(),
                       spg.CriticalVertices().size()});
    if (ties.size() >= 200) break;
  }
  std::sort(ties.begin(), ties.end(),
            [](const Tie& a, const Tie& b) { return a.paths > b.paths; });

  std::printf("\nAll pairs below are at distance %u — identical for a "
              "point-to-point query —\nyet their shortest path graphs "
              "differ sharply:\n\n",
              kTargetDistance);
  std::printf("%-8s %-8s %-14s %-12s %-18s %s\n", "userA", "userB",
              "#short.paths", "SPG size", "critical brokers", "tie");
  auto print = [](const Tie& t) {
    const char* label = t.paths >= 10  ? "strong (redundant)"
                        : t.paths >= 3 ? "moderate"
                                       : "fragile";
    std::printf("%-8u %-8u %-14llu %-12zu %-18zu %s\n", t.u, t.v,
                static_cast<unsigned long long>(t.paths), t.spg_vertices,
                t.critical, label);
  };
  const size_t show = std::min<size_t>(5, ties.size());
  for (size_t i = 0; i < show; ++i) print(ties[i]);
  std::printf("   ...\n");
  for (size_t i = ties.size() >= show ? ties.size() - show : 0;
       i < ties.size(); ++i) {
    print(ties[i]);
  }

  // Aggregate: strong ties have no critical brokers; fragile ties depend
  // on a few cut vertices (the interdiction example explores this).
  uint64_t strong_no_broker = 0;
  uint64_t strong = 0;
  uint64_t fragile_with_broker = 0;
  uint64_t fragile = 0;
  for (const Tie& t : ties) {
    if (t.paths >= 10) {
      ++strong;
      if (t.critical == 0) ++strong_no_broker;
    } else if (t.paths <= 2) {
      ++fragile;
      if (t.critical > 0) ++fragile_with_broker;
    }
  }
  if (strong > 0 && fragile > 0) {
    std::printf("\n%llu/%llu strong ties need no single broker; "
                "%llu/%llu fragile ties depend on at least one.\n",
                static_cast<unsigned long long>(strong_no_broker),
                static_cast<unsigned long long>(strong),
                static_cast<unsigned long long>(fragile_with_broker),
                static_cast<unsigned long long>(fragile));
  }
  return 0;
}
