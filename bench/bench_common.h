// Shared harness for the per-table / per-figure benchmark binaries.
//
// Flags (all optional; InitBenchArgs checks them):
//   --scale=F        dataset size multiplier (default 1.0)
//   --pairs=N        query pairs per dataset (default 500; paper: 10,000)
//   --budget=S       PPL/ParentPPL construction budget in seconds
//                    (default 10; the paper's cutoff is 24 h => DNF)
//   --threads=N      threads for QbS-P / QueryBatch (default min(12,
//                    hardware), mirroring the paper's 12-thread setup)
//   --datasets=A,B   datasets to run, by name or Table 1 abbreviation
//                    (default: the 12 of Table 1, e.g. "DO,DB,YT" or
//                    "dblp,epinions"). Each resolves like qbs's
//                    dataset:<name>: binary cache, then raw file under
//                    --data_dir, then the stand-in at --scale
//   --batch_size=N   queries per QueryBatch call (default 256)
//   --data_dir=PATH  data directory for real datasets (default:
//                    QBS_DATA_DIR, else "data")

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace qbs::bench {

// The parsed flags; see the list at the top of this file.
struct BenchArgs {
  double scale = 1.0;
  size_t pairs = 500;
  double budget_seconds = 10.0;
  size_t threads = 0;  // resolved to min(12, hardware) when not given
  size_t batch_size = 256;
  std::vector<const DatasetSpec*> datasets;
  std::string data_dir;
};

// Parses and checks the --key=value flags. An unknown flag, a value that
// is not a positive number (a whole one for counts), or an unknown dataset
// name exits 2 with a message, before any output. Call first in main().
void InitBenchArgs(int argc, char** argv);

// The flags InitBenchArgs parsed.
const BenchArgs& Args();

struct LoadedDataset {
  const DatasetSpec* spec = nullptr;  // the dataset's row
  std::string id;  // Table 1 abbreviation, or the name when it has none
  Graph graph;
  std::vector<QueryPair> pairs;
  // Where the graph came from: "cache", "raw" or "stand-in"; see
  // ResolvedDataset::source.
  std::string source;
};

// Resolves one --datasets entry with ResolveDataset (cache -> raw ->
// stand-in at --scale; a dataset with neither local data nor a stand-in
// exits 2) and samples --pairs query pairs from it.
LoadedDataset LoadDataset(const DatasetSpec* spec);

// Fixed-width aligned table output. Also echoes each row as CSV to make
// figure series machine-readable (prefix "csv,"); the column names are
// echoed once as a "csvh," header row so the CSV is self-describing.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::vector<std::string> columns,
               std::vector<int> widths);
  void Row(const std::vector<std::string>& cells);
  void Footer() const;

 private:
  std::vector<std::string> columns_;
  std::vector<int> widths_;
};

std::string HumanBytes(uint64_t bytes);
std::string FormatDouble(double value, int precision);
// Milliseconds with adaptive precision (microsecond regime keeps 3+
// decimals, like the paper's Table 2).
std::string FormatMs(double ms);
std::string FormatSeconds(double seconds);

}  // namespace qbs::bench

#endif  // BENCH_BENCH_COMMON_H_
