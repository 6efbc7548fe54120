// Shared harness for the per-table / per-figure benchmark binaries.
//
// Environment knobs (all optional):
//   QBS_BENCH_SCALE      dataset size multiplier (default 1.0)
//   QBS_BENCH_PAIRS      query pairs per dataset (default 500; paper: 10,000)
//   QBS_BENCH_BUDGET     PPL/ParentPPL construction budget in seconds
//                        (default 10; the paper's cutoff is 24 h => DNF)
//   QBS_BENCH_THREADS    threads for QbS-P / QueryBatch (default min(12,
//                        hardware), mirroring the paper's 12-thread setup)
//   QBS_BENCH_DATASETS   comma-separated abbreviations to run (default all,
//                        e.g. "DO,DB,YT")
//   QBS_BENCH_BATCH_SIZE queries per QueryBatch call (default 256)
//   QBS_BENCH_DATASET    comma-separated *real* dataset names (or Table 1
//                        abbreviations) to run against downloaded data,
//                        e.g. "dblp,epinions" (see workload/datasets.h);
//                        missing data falls back to the stand-in
//   QBS_DATA_DIR         data directory for real datasets (default "data")
//
// Command-line flags override the environment: pass argc/argv to
// InitBenchArgs and use --scale=, --pairs=, --budget=, --threads=,
// --datasets=, --batch_size=, --dataset=, --data_dir=.

#ifndef QBS_BENCH_BENCH_COMMON_H_
#define QBS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace qbs::bench {

// Parses --key=value flags into overrides consulted by the Env*() getters.
// Unknown flags abort with a usage message. Call first in main().
void InitBenchArgs(int argc, char** argv);

double EnvScale();
size_t EnvPairs();
double EnvBudgetSeconds();
size_t EnvThreads();
// Queries per QueryBatch call.
size_t EnvBatchSize();

// Data directory for real datasets: --data_dir flag, else QBS_DATA_DIR,
// else "data".
std::string EnvDataDir();

// Registry datasets selected by QBS_BENCH_DATASETS (default: all 12).
std::vector<DatasetSpec> SelectedDatasets();

struct LoadedDataset {
  DatasetSpec spec;
  Graph graph;
  std::vector<QueryPair> pairs;
  // Where the graph came from: "stand-in" (synthetic generator), "cache"
  // (QBSGRF01 binary cache hit), "raw" (edge list parsed + cache written),
  // or "stand-in*" (real dataset requested but data missing).
  std::string source = "stand-in";
};

// Generates the dataset at the env scale and samples the env pair count.
LoadedDataset LoadDataset(const DatasetSpec& spec);

// One entry of the benchmark's dataset sweep: either a synthetic Table 1
// stand-in (the --datasets/QBS_BENCH_DATASETS path) or a real downloaded
// dataset (the --dataset/QBS_BENCH_DATASET path).
struct BenchDatasetRef {
  std::string id;    // stand-in abbreviation, or real-registry name
  bool real = false;
  DatasetSpec spec;  // the stand-in spec; only valid when !real
};

// The dataset sweep for the headline benches (table 1/2): every --dataset
// name (real data, loaded through the binary cache, stand-in fallback when
// data is absent) when given, else the --datasets stand-in selection.
// Unknown --dataset names abort with the available list.
std::vector<BenchDatasetRef> SelectedBenchDatasets();

// Loads one sweep entry: real refs resolve through workload/datasets.h
// (cache -> raw -> stand-in fallback; a non-paper dataset with no local
// data aborts), synthetic refs generate the stand-in at the env scale.
LoadedDataset LoadDataset(const BenchDatasetRef& ref);

// Fixed-width aligned table output. Also echoes each row as CSV to make
// figure series machine-readable (prefix "csv,"); the column names are
// echoed once as a "csvh," header row so downstream tooling
// (scripts/bench_compare.py, CI artifacts) is self-describing.
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

#endif  // QBS_BENCH_BENCH_COMMON_H_
