// google-benchmark microbenchmarks of the individual QbS phases (labelling
// BFS, sketching, guided searching) and the baselines, on a fixed
// Barabási–Albert graph. Complements the table/figure harnesses with
// statistically robust per-operation timings.
//
// CI runs the restart-path pair (BM_LoadLabelingScheme,
// BM_MakeSparsifiedGraph) and gates their times with
// scripts/bench_compare.py, like the table benches.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "core/guided_search.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "gen/generators.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

struct Fixture {
  Fixture()
      : graph(BarabasiAlbert(20000, 4, 42)),
        pairs(SampleQueryPairs(graph, 512, 7)) {
    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = 0;
    index = std::make_unique<QbsIndex>(QbsIndex::Build(graph, options));
  }
  Graph graph;
  std::vector<QueryPair> pairs;
  std::unique_ptr<QbsIndex> index;
};

Fixture& GetFixture() {
  static Fixture* const fixture = new Fixture();
  return *fixture;
}

void BM_LabelingConstructionSequential(benchmark::State& state) {
  auto& f = GetFixture();
  QbsOptions options;
  options.num_landmarks = static_cast<uint32_t>(state.range(0));
  options.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QbsIndex::Build(f.graph, options));
  }
}
BENCHMARK(BM_LabelingConstructionSequential)->Arg(5)->Arg(20)->Arg(50);

void BM_LabelingConstructionParallel(benchmark::State& state) {
  auto& f = GetFixture();
  QbsOptions options;
  options.num_landmarks = static_cast<uint32_t>(state.range(0));
  options.num_threads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QbsIndex::Build(f.graph, options));
  }
}
BENCHMARK(BM_LabelingConstructionParallel)->Arg(5)->Arg(20)->Arg(50);

void BM_Sketching(benchmark::State& state) {
  auto& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = f.pairs[i++ % f.pairs.size()];
    benchmark::DoNotOptimize(f.index->DistanceUpperBound(p.u, p.v));
  }
}
BENCHMARK(BM_Sketching);

void BM_QbsQuery(benchmark::State& state) {
  auto& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = f.pairs[i++ % f.pairs.size()];
    benchmark::DoNotOptimize(f.index->Query({p.u, p.v}));
  }
}
BENCHMARK(BM_QbsQuery);

void BM_BiBfsQuery(benchmark::State& state) {
  auto& f = GetFixture();
  BiBfs bibfs(f.graph);
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = f.pairs[i++ % f.pairs.size()];
    benchmark::DoNotOptimize(bibfs.Query(p.u, p.v));
  }
}
BENCHMARK(BM_BiBfsQuery);

void BM_OracleQuery(benchmark::State& state) {
  auto& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = f.pairs[i++ % f.pairs.size()];
    benchmark::DoNotOptimize(SpgByDoubleBfs(f.graph, p.u, p.v));
  }
}
BENCHMARK(BM_OracleQuery);

// The index file half of a restart: one QBSIDX02 load of the fixture's
// |R| = 20 index (labels, masks, meta-graph; Δ is not stored).
void BM_LoadLabelingScheme(benchmark::State& state) {
  auto& f = GetFixture();
  const std::string path =
      (std::filesystem::temp_directory_path() / "qbs_bench_micro_phases.qbs")
          .string();
  if (!f.index->Save(path)) {
    state.SkipWithError("cannot write the index file");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadLabelingScheme(path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_LoadLabelingScheme)->Unit(benchmark::kMillisecond);

// G⁻ = G[V \ R], rebuilt at every build, load and churn edit.
void BM_MakeSparsifiedGraph(benchmark::State& state) {
  auto& f = GetFixture();
  const PathLabeling& labeling = f.index->labeling();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSparsifiedGraph(f.graph, labeling));
  }
}
BENCHMARK(BM_MakeSparsifiedGraph)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qbs

BENCHMARK_MAIN();
