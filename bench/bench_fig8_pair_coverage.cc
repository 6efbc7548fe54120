// Regenerates Figure 8: pair coverage ratios under 20-100 landmarks.
// For each dataset and |R|, the fraction of query pairs where (i) ALL
// shortest paths pass through a landmark, and (ii) SOME but not all do —
// read directly off the guided search's Eq. 5 case (SearchStats::coverage).

#include <cstdio>

#include "bench/bench_common.h"
#include "core/qbs_index.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Figure 8: pair coverage ratio (case i: all shortest paths "
              "via landmarks; case ii: some), %zu pairs\n",
              Args().pairs);
  TablePrinter table("Figure 8",
                     {"Dataset", "|R|", "all(i)", "some(ii)", "total"},
                     {12, 5, 8, 9, 8});
  for (const auto& ref : Args().datasets) {
    const LoadedDataset d = LoadDataset(ref);
    for (uint32_t k : {20u, 40u, 60u, 80u, 100u}) {
      QbsOptions options;
      options.num_landmarks = k;
      options.num_threads = Args().threads;
      QbsIndex index = QbsIndex::Build(d.graph, options);
      uint64_t all = 0;
      uint64_t some = 0;
      uint64_t connected = 0;
      QueryRequest request;
      for (const auto& [u, v] : d.pairs) {
        request.u = u;
        request.v = v;
        const QueryResponse response = index.Query(request);
        switch (response.stats.coverage) {
          case PairCoverage::kAllThroughLandmarks:
            ++all;
            ++connected;
            break;
          case PairCoverage::kSomeThroughLandmarks:
            ++some;
            ++connected;
            break;
          case PairCoverage::kNoneThroughLandmarks:
            ++connected;
            break;
          case PairCoverage::kDisconnected:
            break;
        }
      }
      const double denom = connected == 0 ? 1.0 : connected;
      table.Row({d.spec.abbrev, std::to_string(k),
                 FormatDouble(all / denom, 3), FormatDouble(some / denom, 3),
                 FormatDouble((all + some) / denom, 3)});
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
