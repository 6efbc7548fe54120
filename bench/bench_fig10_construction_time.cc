// Regenerates Figure 10: QbS construction time against the number of
// landmarks (0-100). The paper's observation: construction time is almost
// linear in |R| on each dataset (one BFS per landmark).

#include <cstdio>

#include "bench/bench_common.h"
#include "core/qbs_index.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Figure 10: QbS construction time (s) vs number of "
              "landmarks\n");
  TablePrinter table("Figure 10",
                     {"Dataset", "|R|", "QbS(s)", "QbS-P(s)"},
                     {12, 5, 10, 10});
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    for (uint32_t k : {5u, 10u, 15u, 20u, 40u, 60u, 80u, 100u}) {
      QbsOptions seq;
      seq.num_landmarks = k;
      seq.num_threads = 1;
      QbsIndex a = QbsIndex::Build(d.graph, seq);
      QbsOptions par = seq;
      par.num_threads = Args().threads;
      QbsIndex b = QbsIndex::Build(d.graph, par);
      table.Row({d.id, std::to_string(k),
                 FormatSeconds(a.timings().labeling_seconds),
                 FormatSeconds(b.timings().labeling_seconds)});
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
