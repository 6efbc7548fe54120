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
#include "core/label_scan.h"
#include "core/qbs_index.h"
#include "graph/frontier.h"
#include "util/timer.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Ablation (Section 6.5): edges traversed and design-choice "
              "effects, |R| = 20, %zu pairs\n",
              EnvPairs());
  TablePrinter table("Ablation",
                     {"Dataset", "scan.BiBFS", "scan.QbS", "ratio",
                      "skipped", "q.QbS", "q.randomLm"},
                     {12, 11, 11, 7, 11, 10, 11});

  for (const auto& ref : SelectedBenchDatasets()) {
    const LoadedDataset d = LoadDataset(ref);
    const Graph& g = d.graph;

    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = EnvThreads();
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

// Bit-parallel mask ablation: the same index built with and without masks.
// Reports both construction times ("(s)" columns, so the CI bench_compare
// gate watches them), per-query latency with and without masks, the label
// fast-path hit rate, the frontier vertices the mask-guided lower bound
// pruned per query, and the mask matrix size — the full price/benefit
// picture of the feature.
void RunBitParallelAblation() {
  std::printf("Bit-parallel label masks: on vs off, |R| = 20, %zu pairs\n",
              EnvPairs());
  TablePrinter table("Bit-parallel ablation",
                     {"Dataset", "b.bp(s)", "b.nobp(s)", "q.bp(ms)",
                      "q.nobp(ms)", "spdup", "hit2(%)", "prune/q", "size.BP"},
                     {12, 10, 10, 10, 11, 7, 8, 9, 10});
  for (const auto& ref : SelectedBenchDatasets()) {
    const LoadedDataset d = LoadDataset(ref);
    const Graph& g = d.graph;

    QbsOptions on;
    on.num_landmarks = 20;
    on.num_threads = EnvThreads();
    QbsOptions off = on;
    off.bit_parallel = false;
    QbsIndex qbs_on = QbsIndex::Build(g, on);
    QbsIndex qbs_off = QbsIndex::Build(g, off);

    // Untimed warmup per index so neither configuration is charged for
    // cold caches.
    const size_t warmup = std::min<size_t>(d.pairs.size(), 128);
    for (size_t i = 0; i < warmup; ++i) {
      qbs_on.Query({d.pairs[i].u, d.pairs[i].v});
    }
    SearchStats agg;
    WallTimer timer;
    for (const auto& [u, v] : d.pairs) {
      agg.Accumulate(qbs_on.Query({u, v}).stats);
    }
    const double q_on = timer.ElapsedMillis() / d.pairs.size();

    for (size_t i = 0; i < warmup; ++i) {
      qbs_off.Query({d.pairs[i].u, d.pairs[i].v});
    }
    timer.Reset();
    for (const auto& [u, v] : d.pairs) qbs_off.Query({u, v});
    const double q_off = timer.ElapsedMillis() / d.pairs.size();

    const double hit2 =
        100.0 * static_cast<double>(agg.label_short_circuits) /
        static_cast<double>(d.pairs.size());
    table.Row({d.spec.abbrev,
               FormatSeconds(qbs_on.timings().labeling_seconds),
               FormatSeconds(qbs_off.timings().labeling_seconds),
               FormatMs(q_on), FormatMs(q_off),
               FormatDouble(q_on > 0 ? q_off / q_on : 0.0, 2),
               FormatDouble(hit2, 1),
               FormatDouble(static_cast<double>(agg.lb_prunes) /
                                static_cast<double>(d.pairs.size()),
                            1),
               HumanBytes(qbs_on.BpMaskSizeBytes())});
  }
  table.Footer();
}

// Label-scan kernel ablation: the per-query fused row merge (the dense
// O(|R|) inner loop of ComputeLabelBound) timed per kernel — scalar
// reference and the SIMD kernel the dispatcher picked for this CPU.
// Reports ms per bound (both "(ms)" columns ride the CI bench_compare
// gate) and ns per row scanned. The checksums double as a free
// differential check: the kernels are bit-identical by contract, so any
// mismatch is printed loudly.
void RunLabelScanKernelAblation() {
  std::printf("Label-scan kernels: scalar vs %s row scan, "
              "|R| = 20, %zu pairs\n",
              ScanOpsFor(ScanKernel::kAvx2).name, EnvPairs());
  TablePrinter table("Label-scan kernels",
                     {"Dataset", "scal(ms)", "simd(ms)", "spdup", "ns/r.s",
                      "ns/r.v"},
                     {12, 10, 10, 7, 8, 8});
  for (const auto& ref : SelectedBenchDatasets()) {
    const LoadedDataset d = LoadDataset(ref);
    const Graph& g = d.graph;

    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = EnvThreads();
    QbsIndex index = QbsIndex::Build(g, options);
    const PathLabeling& l = index.labeling();

    // The row kernels serve non-landmark pairs; landmark endpoints take
    // the scalar special cases and are excluded here.
    std::vector<VertexId> us;
    std::vector<VertexId> vs;
    for (const auto& [u, v] : d.pairs) {
      if (u == v || l.IsLandmark(u) || l.IsLandmark(v)) continue;
      us.push_back(u);
      vs.push_back(v);
    }
    if (us.empty()) continue;
    // Repeat small pair sets so every cell aggregates >= ~200k bounds.
    const size_t reps = std::max<size_t>(1, 200000 / us.size());
    const double calls = static_cast<double>(reps * us.size());
    const double rows = calls * 2.0;

    const ScanOps* kernels[2] = {&ScalarScanOps(),
                                 &ScanOpsFor(ScanKernel::kAvx2)};
    double ms[2] = {0.0, 0.0};
    uint64_t sink[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      WallTimer timer;
      for (size_t r = 0; r < reps; ++r) {
        for (size_t i = 0; i < us.size(); ++i) {
          const LabelBound b = ComputeLabelBoundRows(l, us[i], vs[i],
                                                     kUnreachable, *kernels[k]);
          sink[k] += b.lower + b.upper;
        }
      }
      ms[k] = timer.ElapsedMillis();
    }

    if (sink[0] != sink[1]) {
      std::printf("  WARNING: kernel checksum mismatch on %s "
                  "(scalar %llu, simd %llu)\n",
                  d.spec.abbrev.c_str(),
                  static_cast<unsigned long long>(sink[0]),
                  static_cast<unsigned long long>(sink[1]));
    }
    table.Row({d.spec.abbrev, FormatMs(ms[0] / calls), FormatMs(ms[1] / calls),
               FormatDouble(ms[1] > 0 ? ms[0] / ms[1] : 0.0, 2),
               FormatDouble(ms[0] * 1e6 / rows, 1),
               FormatDouble(ms[1] * 1e6 / rows, 1)});
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
  for (const auto& ref : SelectedBenchDatasets()) {
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
  qbs::bench::RunBitParallelAblation();
  qbs::bench::RunLabelScanKernelAblation();
  qbs::bench::RunFrontierAblation();
}
