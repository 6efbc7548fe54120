// Regenerates Figure 9: labelling sizes of QbS under 20-100 landmarks per
// dataset — size(L) grows linearly with |R|; size(Δ) grows sub-
// quadratically; the meta-graph stays tiny.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/qbs_index.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Figure 9: QbS labelling sizes under 20-100 landmarks\n");
  TablePrinter table(
      "Figure 9",
      {"Dataset", "|R|", "size(L)", "size(Delta)", "meta", "total"},
      {12, 5, 10, 12, 9, 10});
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    for (uint32_t k : {20u, 40u, 60u, 80u, 100u}) {
      QbsOptions options;
      options.num_landmarks = k;
      options.num_threads = Args().threads;
      QbsIndex index = QbsIndex::Build(d.graph, options);
      table.Row({d.id, std::to_string(k),
                 HumanBytes(index.LabelingSizeBytes()),
                 HumanBytes(index.DeltaSizeBytes()),
                 HumanBytes(index.MetaGraphSizeBytes()),
                 HumanBytes(index.LabelingSizeBytes() +
                            index.DeltaSizeBytes() +
                            index.MetaGraphSizeBytes())});
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
