// Regenerates the §6.5 efficiency-source analysis, which the paper reports
// in prose for Twitter: (1) sparsification reduces edges traversed, (2)
// sketch guidance reduces them further versus plain Bi-BFS, (3) the Δ
// precomputation removes landmark-landmark recovery work (every index
// carries Δ, so q.QbS times the full QbS query). Also ablates the
// landmark selection strategy (degree vs. random, the §8 future-work hook)
// and the frontier engine's direction switching (top-down vs
// direction-optimizing full-graph BFS — the construction-time kernel).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "baselines/bibfs.h"
#include "bench/bench_common.h"
#include "core/qbs_index.h"
#include "graph/frontier.h"
#include "util/timer.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Ablation (Section 6.5): edges traversed and design-choice "
              "effects, |R| = 20, %zu pairs\n",
              Args().pairs);
  TablePrinter table("Ablation",
                     {"Dataset", "scan.BiBFS", "scan.QbS", "ratio",
                      "skipped", "q.QbS", "q.randomLm"},
                     {12, 11, 11, 7, 11, 10, 11});

  for (const auto& ref : Args().datasets) {
    const LoadedDataset d = LoadDataset(ref);
    const Graph& g = d.graph;

    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = Args().threads;
    QbsIndex qbs = QbsIndex::Build(g, options);

    QbsOptions random_options = options;
    random_options.landmark_strategy = LandmarkStrategy::kRandom;
    QbsIndex qbs_random = QbsIndex::Build(g, random_options);

    BiBfs bibfs(g);

    uint64_t bibfs_scans = 0;
    for (const auto& [u, v] : d.pairs) {
      uint64_t scans = 0;
      bibfs.Query(u, v, &scans);
      bibfs_scans += scans;
    }

    uint64_t qbs_scans = 0;
    uint64_t skipped = 0;
    WallTimer timer;
    for (const auto& [u, v] : d.pairs) {
      const SearchStats stats = qbs.Query({u, v}).stats;
      qbs_scans += stats.TotalEdgesScanned();
      skipped += stats.landmark_edges_skipped;
    }
    const double q_qbs = timer.ElapsedMillis() / d.pairs.size();

    timer.Reset();
    for (const auto& [u, v] : d.pairs) qbs_random.Query({u, v});
    const double q_random = timer.ElapsedMillis() / d.pairs.size();

    const double avg_bibfs =
        static_cast<double>(bibfs_scans) / d.pairs.size();
    const double avg_qbs = static_cast<double>(qbs_scans) / d.pairs.size();
    table.Row({d.spec.abbrev, FormatDouble(avg_bibfs, 0),
               FormatDouble(avg_qbs, 0),
               FormatDouble(avg_qbs / std::max(1.0, avg_bibfs), 3),
               FormatDouble(static_cast<double>(skipped) / d.pairs.size(), 0),
               FormatMs(q_qbs), FormatMs(q_random)});
  }
  table.Footer();
}

// Direction-switching ablation: a full-graph BFS from the 5 highest-degree
// vertices, top-down versus direction-optimizing, with the engine's scan
// counters. This is the per-landmark kernel of Algorithm 2 construction.
void RunFrontierAblation() {
  std::printf("Frontier engine: top-down vs direction-optimizing "
              "full-graph BFS (5 hub sources)\n");
  TablePrinter table("Frontier ablation",
                     {"Dataset", "td(ms)", "auto(ms)", "speedup",
                      "scan.td", "scan.auto", "bu.levels"},
                     {12, 9, 9, 8, 12, 12, 9});
  for (const auto& ref : Args().datasets) {
    const LoadedDataset d = LoadDataset(ref);
    const Graph& g = d.graph;
    std::vector<VertexId> sources(g.NumVertices());
    std::iota(sources.begin(), sources.end(), 0);
    const size_t top = std::min<size_t>(5, sources.size());
    std::partial_sort(
        sources.begin(), sources.begin() + top, sources.end(),
        [&g](VertexId a, VertexId b) { return g.Degree(a) > g.Degree(b); });
    sources.resize(top);

    FrontierEngine engine;
    std::vector<uint32_t> dist;
    uint64_t scans[2] = {0, 0};
    uint32_t bu_levels = 0;
    double ms[2] = {0, 0};
    const TraversalMode modes[2] = {TraversalMode::kTopDown,
                                    TraversalMode::kAuto};
    for (int m = 0; m < 2; ++m) {
      WallTimer timer;
      for (VertexId s : sources) {
        engine.Distances(g, s, kUnreachable - 1, &dist, modes[m]);
        scans[m] += engine.stats().edges_scanned;
        if (m == 1) bu_levels += engine.stats().bottom_up_levels;
      }
      ms[m] = timer.ElapsedMillis();
    }
    table.Row({d.spec.abbrev, FormatMs(ms[0]), FormatMs(ms[1]),
               FormatDouble(ms[1] > 0 ? ms[0] / ms[1] : 0.0, 2),
               std::to_string(scans[0]), std::to_string(scans[1]),
               std::to_string(bu_levels)});
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
  qbs::bench::RunFrontierAblation();
}
