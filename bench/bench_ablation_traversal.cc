// Regenerates the §6.5 efficiency-source analysis, which the paper reports
// in prose for Twitter: (1) sparsification reduces edges traversed, (2)
// sketch guidance reduces them further versus plain Bi-BFS, (3) the Δ
// precomputation removes landmark-landmark recovery work (every index
// carries Δ, so q.QbS times the full QbS query).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/bibfs.h"
#include "bench/bench_common.h"
#include "core/qbs_index.h"
#include "util/timer.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Ablation (Section 6.5): edges traversed and design-choice "
              "effects, |R| = 20, %zu pairs\n",
              Args().pairs);
  TablePrinter table("Ablation",
                     {"Dataset", "scan.BiBFS", "scan.QbS", "ratio", "skipped",
                      "q.QbS"},
                     {12, 11, 11, 7, 11, 10});

  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    const Graph& g = d.graph;

    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = Args().threads;
    QbsIndex qbs = QbsIndex::Build(g, options);

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

    const double avg_bibfs =
        static_cast<double>(bibfs_scans) / d.pairs.size();
    const double avg_qbs = static_cast<double>(qbs_scans) / d.pairs.size();
    table.Row({d.id, FormatDouble(avg_bibfs, 0),
               FormatDouble(avg_qbs, 0),
               FormatDouble(avg_qbs / std::max(1.0, avg_bibfs), 3),
               FormatDouble(static_cast<double>(skipped) / d.pairs.size(), 0),
               FormatMs(q_qbs)});
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
