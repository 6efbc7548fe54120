#include "bench/bench_common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "workload/datasets.h"

namespace qbs::bench {
namespace {

BenchArgs g_args;

[[noreturn]] void BadValue(const std::string& flag, const std::string& value,
                           const char* expected) {
  std::fprintf(stderr, "%s: bad value '%s' (expected %s)\n", flag.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

// A whole number > 0: signs, blanks, trailing characters and values past
// size_t exit 2 instead of being truncated or read as 0.
size_t PositiveCount(const std::string& flag, const std::string& value) {
  const char* end = value.data() + value.size();
  size_t v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || v == 0) {
    BadValue(flag, value, "a positive integer");
  }
  return v;
}

// A finite number > 0, with nothing after it.
double PositiveReal(const std::string& flag, const std::string& value) {
  const char* end = value.data() + value.size();
  double v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || !(v > 0)) {
    BadValue(flag, value, "a positive number");
  }
  return v;
}

// Splits "a,b,c"; empty items are kept so that they fail the name lookup.
std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> items;
  size_t start = 0;
  for (size_t comma; (comma = value.find(',', start)) != std::string::npos;
       start = comma + 1) {
    items.push_back(value.substr(start, comma - start));
  }
  items.push_back(value.substr(start));
  return items;
}

// The stand-ins named in `list`, or all 12 when it is empty.
std::vector<BenchDatasetRef> StandInRefs(const std::string& list) {
  const auto& all = PaperDatasets();
  std::vector<BenchDatasetRef> refs;
  if (list.empty()) {
    for (const DatasetSpec& spec : all) {
      refs.push_back({.id = spec.abbrev, .real = false, .spec = spec});
    }
    return refs;
  }
  for (const std::string& item : SplitList(list)) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& s) {
      return s.abbrev == item;
    });
    if (it == all.end()) {
      std::string names;
      for (const DatasetSpec& s : all) {
        names += (names.empty() ? "" : ", ") + s.abbrev;
      }
      std::fprintf(stderr,
                   "--datasets: unknown abbreviation '%s'. Available: %s\n",
                   item.c_str(), names.c_str());
      std::exit(2);
    }
    refs.push_back({.id = it->abbrev, .real = false, .spec = *it});
  }
  return refs;
}

std::vector<BenchDatasetRef> RealRefs(const std::string& list) {
  std::vector<BenchDatasetRef> refs;
  for (const std::string& item : SplitList(list)) {
    if (FindRealDataset(item) == nullptr) {
      std::fprintf(stderr,
                   "--dataset: unknown dataset '%s'. Available: %s\n",
                   item.c_str(), AvailableDatasetNames().c_str());
      std::exit(2);
    }
    refs.push_back({.id = item, .real = true, .spec = {}});
  }
  return refs;
}

std::string NonEmpty(const std::string& flag, const std::string& value) {
  if (value.empty()) BadValue(flag, value, "a value");
  return value;
}

// Sets one --flag=value into g_args (the dataset lists into *stand_ins and
// *real, resolved once every flag is read); false for an unknown flag.
bool SetFlag(const std::string& flag, const std::string& value,
             std::string* stand_ins, std::string* real) {
  if (flag == "--scale") {
    g_args.scale = PositiveReal(flag, value);
  } else if (flag == "--pairs") {
    g_args.pairs = PositiveCount(flag, value);
  } else if (flag == "--budget") {
    g_args.budget_seconds = PositiveReal(flag, value);
  } else if (flag == "--threads") {
    g_args.threads = PositiveCount(flag, value);
  } else if (flag == "--batch_size") {
    g_args.batch_size = PositiveCount(flag, value);
  } else if (flag == "--datasets") {
    *stand_ins = NonEmpty(flag, value);
  } else if (flag == "--dataset") {
    *real = NonEmpty(flag, value);
  } else if (flag == "--data_dir") {
    g_args.data_dir = NonEmpty(flag, value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

void InitBenchArgs(int argc, char** argv) {
  std::string stand_ins, real;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!SetFlag(arg.substr(0, eq), value, &stand_ins, &real)) {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--scale=F] [--pairs=N] "
                   "[--budget=S] [--threads=N] [--datasets=DO,DB,...] "
                   "[--batch_size=N] "
                   "[--dataset=dblp,epinions,...] [--data_dir=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (g_args.threads == 0) {
    // The paper parallelizes QbS-P with up to 12 threads.
    const size_t hw = std::thread::hardware_concurrency();
    g_args.threads = std::min<size_t>(hw == 0 ? 1 : hw, 12);
  }
  if (g_args.data_dir.empty()) g_args.data_dir = DefaultDataDir();
  g_args.datasets = real.empty() ? StandInRefs(stand_ins) : RealRefs(real);
}

const BenchArgs& Args() { return g_args; }

LoadedDataset LoadDataset(const BenchDatasetRef& ref) {
  LoadedDataset d;
  if (!ref.real) {
    d.spec = ref.spec;
    d.graph = MakeDataset(ref.spec, g_args.scale);
  } else {
    auto resolved = ResolveDataset(ref.id, g_args.data_dir, g_args.scale);
    if (!resolved.has_value()) {
      // ResolveDataset already printed the reason + the available list.
      std::exit(2);
    }
    d.source =
        resolved->source == "stand-in" ? "stand-in*" : resolved->source;
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
  }
  d.pairs = SampleQueryPairs(d.graph, g_args.pairs, /*seed=*/20210402);
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
