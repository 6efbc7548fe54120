// Regenerates Figure 10: QbS construction time against the number of
// landmarks (0-100). The labelling runs one BFS for all landmarks, with a
// bit lane per landmark, so its time steps with ⌈|R|/64⌉, the words of
// lanes each vertex carries. Within a step it still rises with the labels
// written and the lanes a pull level must see before it stops early, but
// far more slowly than the paper's one BFS per landmark.
//
// Each row is one build at one thread count: 1 (QbS) and --threads
// (QbS-P). Beside the labelling time it records the host's core count,
// the steal ticks /proc/stat counted while the row ran (time the
// hypervisor gave this host's CPUs to others) and the process's peak RSS
// after the build.

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/qbs_index.h"

namespace qbs::bench {
namespace {

// The host's steal ticks so far: the 8th field of /proc/stat's "cpu" line,
// or 0 where it cannot be read.
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (uint64_t& field : fields) stat >> field;
  return stat ? fields[7] : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

void Run() {
  std::printf("Figure 10: QbS construction time (s) vs number of "
              "landmarks\n");
  TablePrinter table(
      "Figure 10",
      {"Dataset", "|R|", "threads", "nproc", "label(s)", "steal", "peakMB"},
      {12, 5, 8, 6, 10, 6, 8});
  const std::string nproc = std::to_string(std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts = {1};
  if (Args().threads != 1) thread_counts.push_back(Args().threads);
  for (const DatasetSpec* spec : Args().datasets) {
    const LoadedDataset d = LoadDataset(spec);
    for (uint32_t k : {5u, 10u, 15u, 20u, 40u, 60u, 80u, 100u}) {
      for (const size_t threads : thread_counts) {
        QbsOptions options;
        options.num_landmarks = k;
        options.num_threads = threads;
        const uint64_t steal0 = StealTicks();
        const QbsIndex index = QbsIndex::Build(d.graph, options);
        const uint64_t steal = StealTicks() - steal0;
        table.Row({d.id, std::to_string(k), std::to_string(threads), nproc,
                   FormatSeconds(index.timings().labeling_seconds),
                   std::to_string(steal), FormatDouble(PeakRssMb(), 1)});
      }
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
