#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "workload/datasets.h"

namespace qbs::bench {
namespace {

// Flag overrides (from InitBenchArgs); empty string = not set.
struct FlagOverrides {
  std::string scale, pairs, budget, threads, datasets, batch_size;
  std::string dataset, data_dir;
};
FlagOverrides g_flags;

double ToDouble(const std::string& flag, const char* env_name,
                double fallback) {
  if (!flag.empty()) return std::atof(flag.c_str());
  const char* s = std::getenv(env_name);
  return s == nullptr ? fallback : std::atof(s);
}

}  // namespace

void InitBenchArgs(int argc, char** argv) {
  const struct {
    const char* name;
    std::string* slot;
  } known[] = {{"--scale=", &g_flags.scale},
               {"--pairs=", &g_flags.pairs},
               {"--budget=", &g_flags.budget},
               {"--threads=", &g_flags.threads},
               {"--datasets=", &g_flags.datasets},
               {"--batch_size=", &g_flags.batch_size},
               {"--dataset=", &g_flags.dataset},
               {"--data_dir=", &g_flags.data_dir}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    for (const auto& k : known) {
      const std::string prefix(k.name);
      if (arg.rfind(prefix, 0) == 0) {
        *k.slot = arg.substr(prefix.size());
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--scale=F] [--pairs=N] "
                   "[--budget=S] [--threads=N] [--datasets=DO,DB,...] "
                   "[--batch_size=N] "
                   "[--dataset=dblp,epinions,...] [--data_dir=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
}

double EnvScale() { return ToDouble(g_flags.scale, "QBS_BENCH_SCALE", 1.0); }

size_t EnvPairs() {
  return static_cast<size_t>(ToDouble(g_flags.pairs, "QBS_BENCH_PAIRS", 500));
}

double EnvBudgetSeconds() {
  return ToDouble(g_flags.budget, "QBS_BENCH_BUDGET", 10.0);
}

size_t EnvThreads() {
  const double v = ToDouble(g_flags.threads, "QBS_BENCH_THREADS", 0);
  if (v > 0) return static_cast<size_t>(v);
  const size_t hw = std::thread::hardware_concurrency();
  // The paper parallelizes QbS-P with up to 12 threads.
  return std::min<size_t>(hw == 0 ? 1 : hw, 12);
}

size_t EnvBatchSize() {
  const double v =
      ToDouble(g_flags.batch_size, "QBS_BENCH_BATCH_SIZE", 256);
  return v > 0 ? static_cast<size_t>(v) : 256;
}

std::vector<DatasetSpec> SelectedDatasets() {
  std::vector<DatasetSpec> result;
  std::string s = g_flags.datasets;
  if (s.empty()) {
    const char* filter = std::getenv("QBS_BENCH_DATASETS");
    if (filter == nullptr) return PaperDatasets();
    s = filter;
  }
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    for (const auto& spec : PaperDatasets()) {
      if (spec.abbrev == item) result.push_back(spec);
    }
  }
  return result;
}

LoadedDataset LoadDataset(const DatasetSpec& spec) {
  LoadedDataset d;
  d.spec = spec;
  d.graph = MakeDataset(spec, EnvScale());
  d.pairs = SampleQueryPairs(d.graph, EnvPairs(), /*seed=*/20210402);
  return d;
}

std::string EnvDataDir() {
  if (!g_flags.data_dir.empty()) return g_flags.data_dir;
  return DefaultDataDir();  // honors QBS_DATA_DIR
}

std::vector<BenchDatasetRef> SelectedBenchDatasets() {
  std::string real = g_flags.dataset;
  if (real.empty()) {
    const char* env = std::getenv("QBS_BENCH_DATASET");
    if (env != nullptr) real = env;
  }
  std::vector<BenchDatasetRef> refs;
  if (real.empty()) {
    for (const DatasetSpec& spec : SelectedDatasets()) {
      BenchDatasetRef ref;
      ref.id = spec.abbrev;
      ref.spec = spec;
      refs.push_back(std::move(ref));
    }
    return refs;
  }
  std::stringstream ss(real);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (FindRealDataset(item) == nullptr) {
      std::fprintf(stderr,
                   "--dataset: unknown dataset '%s'. Available: %s\n",
                   item.c_str(), AvailableDatasetNames().c_str());
      std::exit(2);
    }
    BenchDatasetRef ref;
    ref.id = item;
    ref.real = true;
    refs.push_back(std::move(ref));
  }
  return refs;
}

LoadedDataset LoadDataset(const BenchDatasetRef& ref) {
  if (!ref.real) return LoadDataset(ref.spec);
  auto resolved = ResolveDataset(ref.id, EnvDataDir(), EnvScale());
  if (!resolved.has_value()) {
    // ResolveDataset already printed the reason + the available list.
    std::exit(2);
  }
  LoadedDataset d;
  d.source = resolved->source == "stand-in" ? "stand-in*" : resolved->source;
  d.spec.name = resolved->name;
  d.spec.abbrev =
      resolved->abbrev.empty() ? resolved->name : resolved->abbrev;
  d.spec.paper_vertices_m = resolved->paper_vertices_m;
  d.spec.paper_edges_m = resolved->paper_edges_m;
  if (!resolved->abbrev.empty()) {
    // The avg-degree / avg-distance reference columns live on the
    // stand-in spec.
    const DatasetSpec& standin = DatasetByAbbrev(resolved->abbrev);
    d.spec.paper_avg_deg = standin.paper_avg_deg;
    d.spec.paper_avg_dist = standin.paper_avg_dist;
  }
  d.graph = std::move(resolved->graph);
  d.pairs = SampleQueryPairs(d.graph, EnvPairs(), /*seed=*/20210402);
  return d;
}

TablePrinter::TablePrinter(std::string title,
                           std::vector<std::string> columns,
                           std::vector<int> widths)
    : columns_(std::move(columns)), widths_(std::move(widths)) {
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%-*s ", widths_[i], columns_[i].c_str());
  }
  std::printf("\n");
  // Self-describing CSV: one header row per table for downstream tooling.
  std::printf("csvh");
  for (const auto& c : columns_) std::printf(",%s", c.c_str());
  std::printf("\n");
  int total = 0;
  for (int w : widths_) total += w + 1;
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    std::printf("%-*s ", widths_[i], cells[i].c_str());
  }
  std::printf("\n");
  std::printf("csv");
  for (const auto& c : cells) std::printf(",%s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

void TablePrinter::Footer() const { std::printf("\n"); }

std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2fKB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FormatMs(double ms) {
  return FormatDouble(ms, ms < 1.0 ? 4 : (ms < 100.0 ? 2 : 1));
}

std::string FormatSeconds(double seconds) {
  return FormatDouble(seconds, seconds < 1.0 ? 3 : 2);
}

}  // namespace qbs::bench
