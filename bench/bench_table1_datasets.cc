// Regenerates Table 1: dataset statistics — |V|, |E|, max degree, average
// degree, average distance over sampled pairs, and the in-memory graph size
// |G| — alongside the paper's reference values for the real datasets.
//
// Default sweep: the 12 synthetic stand-ins. With --dataset=dblp,... the
// rows come from the real downloaded graphs via the binary dataset cache
// (tools/fetch_datasets.py + workload/datasets.h); the source column then
// reads cache/raw, and the measured |V|/|E| columns reproduce the paper's
// Table 1 for that dataset.

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
  for (const auto& ref : Args().datasets) {
    const LoadedDataset d = LoadDataset(ref);
    const auto dist = ComputeDistanceDistribution(d.graph, d.pairs);
    const bool paper = d.spec.paper_vertices_m > 0.0;
    table.Row({d.spec.abbrev, d.source, std::to_string(d.graph.NumVertices()),
               std::to_string(d.graph.NumEdges()),
               std::to_string(d.graph.MaxDegree()),
               FormatDouble(d.graph.AverageDegree(), 2),
               FormatDouble(dist.Mean(), 2), HumanBytes(d.graph.SizeBytes()),
               paper ? FormatDouble(d.spec.paper_vertices_m, 1) + "M" : "-",
               paper ? FormatDouble(d.spec.paper_edges_m, 1) + "M" : "-",
               paper ? FormatDouble(d.spec.paper_avg_deg, 2) : "-",
               paper ? FormatDouble(d.spec.paper_avg_dist, 1) : "-"});
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
