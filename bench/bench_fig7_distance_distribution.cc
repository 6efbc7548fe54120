// Regenerates Figure 7: the distance distribution of randomly sampled
// vertex pairs per dataset (the paper plots the fraction of pairs at each
// distance, two panels: the six smaller and six larger datasets).

#include <cstdio>

#include "bench/bench_common.h"
#include "workload/query_workload.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Figure 7: distance distribution of %zu random pairs\n",
              Args().pairs);
  constexpr uint32_t kMaxDistanceColumn = 14;
  std::vector<std::string> columns{"Dataset"};
  std::vector<int> widths{12};
  for (uint32_t d = 1; d <= kMaxDistanceColumn; ++d) {
    columns.push_back("d=" + std::to_string(d));
    widths.push_back(6);
  }
  columns.push_back("disc");
  widths.push_back(6);
  TablePrinter table("Figure 7 (fraction of pairs per distance)", columns,
                     widths);
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    const auto dist = ComputeDistanceDistribution(d.graph, d.pairs);
    std::vector<std::string> row{d.id};
    for (uint32_t x = 1; x <= kMaxDistanceColumn; ++x) {
      row.push_back(FormatDouble(dist.FractionAt(x), 3));
    }
    row.push_back(FormatDouble(
        dist.total == 0
            ? 0.0
            : static_cast<double>(dist.disconnected) / dist.total,
        3));
    table.Row(row);
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
