// Regenerates Figure 11: average query time against the number of
// landmarks (5-100). The paper's observation: more landmarks help hub-
// dominated graphs (more sparsification) but can hurt evenly-distributed
// ones (a larger sketch). Here the sketch costs |cv|·|R| contiguous row adds
// plus a pass 2 over the anchors that reach d⊤; the sketch(ms) column times
// that stage alone: ComputeSketchInto over the same pairs, meta-edges
// deferred as the query path runs it.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/qbs_index.h"
#include "core/sketch.h"
#include "util/timer.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Figure 11: QbS average query time (ms) vs number of "
              "landmarks; %zu pairs\n",
              Args().pairs);
  TablePrinter table("Figure 11",
                     {"Dataset", "|R|", "query(ms)", "sketch(ms)"},
                     {12, 5, 10, 10});
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    for (uint32_t k : {5u, 10u, 15u, 20u, 40u, 60u, 80u, 100u}) {
      QbsOptions options;
      options.num_landmarks = k;
      options.num_threads = Args().threads;
      QbsIndex index = QbsIndex::Build(d.graph, options);
      QueryRequest request;
      WallTimer timer;
      for (const auto& [u, v] : d.pairs) {
        request.u = u;
        request.v = v;
        index.Query(request);
      }
      const double query_ms = timer.ElapsedMillis() / d.pairs.size();
      Sketch sketch;
      SketchScratch scratch;
      WallTimer sketch_timer;
      for (const auto& [u, v] : d.pairs) {
        ComputeSketchInto(index.labeling(), index.meta_graph(), u, v, &sketch,
                          &scratch, /*with_meta_edges=*/false);
      }
      table.Row({d.id, std::to_string(k), FormatMs(query_ms),
                 FormatMs(sketch_timer.ElapsedMillis() / d.pairs.size())});
    }
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
