// Regenerates Table 1: dataset statistics — |V|, |E|, max degree, average
// degree, average distance over sampled pairs, and the in-memory graph size
// |G| — alongside the paper's reference values for the real datasets.
//
// Default sweep: the 12 Table 1 datasets. Each row resolves through the
// dataset table (workload/dataset_registry.h): a real graph fetched by
// tools/fetch_datasets.py, read from its binary cache or raw file, or else
// the synthetic stand-in at --scale. The source column says which; for a
// real graph the measured |V|/|E| columns reproduce the paper's Table 1.

#include <cstdio>

#include "bench/bench_common.h"
#include "workload/query_workload.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Table 1: datasets (stand-ins at scale %.2f; paper values in "
              "the right columns)\n",
              Args().scale);
  TablePrinter table(
      "Table 1",
      {"Dataset", "source", "|V|", "|E|", "max.deg", "avg.deg", "avg.dist",
       "|G|", "paper|V|", "paper|E|", "paper.deg", "paper.dist"},
      {12, 9, 9, 10, 8, 8, 8, 10, 9, 9, 9, 10});
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    const auto dist = ComputeDistanceDistribution(d.graph, d.pairs);
    const bool paper = d.spec->paper_vertices_m > 0.0;
    table.Row({d.id, d.source, std::to_string(d.graph.NumVertices()),
               std::to_string(d.graph.NumEdges()),
               std::to_string(d.graph.MaxDegree()),
               FormatDouble(d.graph.AverageDegree(), 2),
               FormatDouble(dist.Mean(), 2), HumanBytes(d.graph.SizeBytes()),
               paper ? FormatDouble(d.spec->paper_vertices_m, 1) + "M" : "-",
               paper ? FormatDouble(d.spec->paper_edges_m, 1) + "M" : "-",
               paper ? FormatDouble(d.spec->paper_avg_deg, 2) : "-",
               paper ? FormatDouble(d.spec->paper_avg_dist, 1) : "-"});
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
