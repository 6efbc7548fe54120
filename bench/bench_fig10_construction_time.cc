// Regenerates Figure 10: QbS construction time against the number of
// landmarks (0-100). The labelling runs one BFS for all landmarks, with a
// bit lane per landmark, in 32-bit lane words when |R| <= 32 and 64-bit
// ones beyond, so its time steps with the words of lanes each vertex
// carries: one 32-bit word up to |R| = 32, then ⌈|R|/64⌉ 64-bit words.
// Within a step it still rises with the labels written and the lanes a
// pull level must see before it stops early, but far more slowly than the
// paper's one BFS per landmark.
//
// Each row is kBuildsPerRow builds at one thread count: 1 (QbS) and
// --threads (QbS-P), and reports their median labelling time. Beside it
// the row records the host's core count, the steal ticks /proc/stat
// counted while the row ran (time the hypervisor gave this host's CPUs to
// others) and the row's own peak RSS: the high-water mark is reset before
// the row's first build and read after its last, so no earlier row's peak
// shows through. "-" marks a peak the kernel would not reset or report.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __GLIBC__  // defined by any libc header above
#include <malloc.h>
#endif

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

// Builds per row; the row reports their median labelling time.
constexpr size_t kBuildsPerRow = 5;

// Resets the process's peak RSS (VmHWM) to its current RSS by writing 5 to
// /proc/self/clear_refs. False where the kernel does not allow it. The
// heap's free pages go back to the kernel first, so the mark starts from
// what the process holds live, not from what earlier rows' builds left
// cached in the allocator.
bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// VmHWM from /proc/self/status in MB, or nullopt where it cannot be read.
std::optional<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      uint64_t kib = 0;
      if (status >> kib) return static_cast<double>(kib) * 1024.0 / 1e6;
      return std::nullopt;
    }
    status.ignore(4096, '\n');
  }
  return std::nullopt;
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
        const bool reset = ResetPeakRss();
        const uint64_t steal0 = StealTicks();
        std::vector<double> seconds;
        for (size_t run = 0; run < kBuildsPerRow; ++run) {
          seconds.push_back(
              QbsIndex::Build(d.graph, options).timings().labeling_seconds);
        }
        const uint64_t steal = StealTicks() - steal0;
        const std::optional<double> peak = PeakRssMb();
        std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                         seconds.end());
        table.Row({d.id, std::to_string(k), std::to_string(threads), nproc,
                   FormatDouble(seconds[seconds.size() / 2], 4),
                   std::to_string(steal),
                   reset && peak ? FormatDouble(*peak, 1) : "-"});
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
