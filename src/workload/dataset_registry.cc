#include "workload/dataset_registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "gen/generators.h"
#include "graph/components.h"
#include "util/check.h"

namespace qbs {
namespace {

using enum GeneratorKind;

// Table 1 order. URLs are the plain whitespace edge-list mirrors; hosts
// that only ship zip/WebGraph/XML containers (Douban, Baidu, Twitter,
// uk2007, ClueWeb09) carry an empty URL, and tools/fetch_datasets.py prints
// how to fetch and unpack those by hand. The stand-ins are roughly 1/25th
// to 1/13000th of the real vertex counts, with average degree and skew
// matched to the real network.
std::vector<DatasetSpec> BuildTable() {
  return {
      {.name = "douban", .abbrev = "DO", .file = "soc-douban.txt",
       .url = "",
       .host_vertices = 154908, .host_edges = 327162,
       .paper_vertices_m = 0.2, .paper_edges_m = 0.3, .paper_avg_deg = 4.2,
       .paper_avg_dist = 5.2,
       .kind = kBarabasiAlbert, .n = 8000, .param = 2},
      {.name = "dblp", .abbrev = "DB", .file = "com-dblp.ungraph.txt.gz",
       .url = "https://snap.stanford.edu/data/bigdata/communities/"
              "com-dblp.ungraph.txt.gz",
       .host_vertices = 317080, .host_edges = 1049866,
       .paper_vertices_m = 0.3, .paper_edges_m = 1.1, .paper_avg_deg = 6.6,
       .paper_avg_dist = 6.8,
       .kind = kBarabasiAlbert, .n = 10000, .param = 3},
      {.name = "youtube", .abbrev = "YT", .file = "com-youtube.ungraph.txt.gz",
       .url = "https://snap.stanford.edu/data/bigdata/communities/"
              "com-youtube.ungraph.txt.gz",
       .host_vertices = 1134890, .host_edges = 2987624,
       .paper_vertices_m = 1.1, .paper_edges_m = 3.0, .paper_avg_deg = 5.27,
       .paper_avg_dist = 5.3,
       .kind = kRMat, .param = 3, .rmat_scale = 14, .rmat_a = 0.57},
      {.name = "wikitalk", .abbrev = "WK", .file = "wiki-Talk.txt.gz",
       .url = "https://snap.stanford.edu/data/wiki-Talk.txt.gz",
       .host_vertices = 2394385, .host_edges = 5021410,
       .paper_vertices_m = 2.4, .paper_edges_m = 5.0, .paper_avg_deg = 3.89,
       .paper_avg_dist = 3.9,
       .kind = kRMat, .param = 2, .rmat_scale = 14, .rmat_a = 0.62},
      {.name = "skitter", .abbrev = "SK", .file = "as-skitter.txt.gz",
       .url = "https://snap.stanford.edu/data/as-skitter.txt.gz",
       .host_vertices = 1696415, .host_edges = 11095298,
       .paper_vertices_m = 1.7, .paper_edges_m = 11.1, .paper_avg_deg = 13.08,
       .paper_avg_dist = 5.1,
       .kind = kBarabasiAlbert, .n = 12000, .param = 6},
      {.name = "baidu", .abbrev = "BA", .file = "baidu-baike.txt",
       .url = "",
       .host_vertices = 2141300, .host_edges = 17794839,
       .paper_vertices_m = 2.1, .paper_edges_m = 17.8, .paper_avg_deg = 15.89,
       .paper_avg_dist = 4.1,
       .kind = kRMat, .param = 8, .rmat_scale = 14, .rmat_a = 0.60},
      {.name = "livejournal", .abbrev = "LJ", .file = "com-lj.ungraph.txt.gz",
       .url = "https://snap.stanford.edu/data/bigdata/communities/"
              "com-lj.ungraph.txt.gz",
       .host_vertices = 3997962, .host_edges = 34681189,
       .paper_vertices_m = 4.8, .paper_edges_m = 68.5, .paper_avg_deg = 17.79,
       .paper_avg_dist = 5.5,
       .kind = kBarabasiAlbert, .n = 16000, .param = 9},
      {.name = "orkut", .abbrev = "OR", .file = "com-orkut.ungraph.txt.gz",
       .url = "https://snap.stanford.edu/data/bigdata/communities/"
              "com-orkut.ungraph.txt.gz",
       .host_vertices = 3072441, .host_edges = 117185083,
       .paper_vertices_m = 3.1, .paper_edges_m = 117.0, .paper_avg_deg = 76.28,
       .paper_avg_dist = 4.2,
       .kind = kBarabasiAlbert, .n = 12000, .param = 38},
      {.name = "twitter", .abbrev = "TW", .file = "twitter-2010.txt",
       .url = "",
       .host_vertices = 41652230, .host_edges = 1468365182,
       .paper_vertices_m = 41.7, .paper_edges_m = 1500.0,
       .paper_avg_deg = 57.74, .paper_avg_dist = 3.6,
       .kind = kRMat, .param = 29, .rmat_scale = 15, .rmat_a = 0.60},
      {.name = "friendster", .abbrev = "FR",
       .file = "com-friendster.ungraph.txt.gz",
       .url = "https://snap.stanford.edu/data/bigdata/communities/"
              "com-friendster.ungraph.txt.gz",
       .host_vertices = 65608366, .host_edges = 1806067135,
       .paper_vertices_m = 65.6, .paper_edges_m = 1800.0,
       .paper_avg_deg = 55.06, .paper_avg_dist = 4.8,
       .kind = kWattsStrogatz, .n = 32768, .param = 56, .beta = 0.3},
      {.name = "uk2007", .abbrev = "UK", .file = "uk-2007-05.txt",
       .url = "",
       .host_vertices = 105896555, .host_edges = 3738733648ull,
       .paper_vertices_m = 106.0, .paper_edges_m = 3700.0,
       .paper_avg_deg = 62.77, .paper_avg_dist = 5.6,
       .kind = kRMat, .param = 31, .rmat_scale = 15, .rmat_a = 0.60},
      {.name = "clueweb09", .abbrev = "CW", .file = "clueweb09.txt",
       .url = "",
       .host_vertices = 1684868322ull, .host_edges = 7811385827ull,
       .paper_vertices_m = 1700.0, .paper_edges_m = 7800.0,
       .paper_avg_deg = 9.27, .paper_avg_dist = 7.5,
       .kind = kRMat, .param = 5, .rmat_scale = 17, .rmat_a = 0.62},
      // Not in Table 1: a ~5 MB SNAP network that exercises the full
      // fetch -> convert -> cache -> bench pipeline in seconds.
      {.name = "epinions", .abbrev = "", .file = "soc-Epinions1.txt.gz",
       .url = "https://snap.stanford.edu/data/soc-Epinions1.txt.gz",
       .host_vertices = 75879, .host_edges = 508837},
  };
}

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

const std::vector<DatasetSpec>& Datasets() {
  static const std::vector<DatasetSpec>* const kTable =
      new std::vector<DatasetSpec>(BuildTable());
  return *kTable;
}

const DatasetSpec* FindDataset(const std::string& name) {
  const std::string key = Lower(name);
  for (const DatasetSpec& s : Datasets()) {
    if (s.name == key || (!s.abbrev.empty() && Lower(s.abbrev) == key)) {
      return &s;
    }
  }
  return nullptr;
}

const DatasetSpec& DatasetByAbbrev(const std::string& abbrev) {
  const DatasetSpec* spec = FindDataset(abbrev);
  QBS_CHECK(spec != nullptr && !spec->abbrev.empty() &&
            "unknown Table 1 dataset");
  return *spec;
}

std::string AvailableDatasetNames() {
  std::string out;
  for (const DatasetSpec& s : Datasets()) {
    if (!out.empty()) out += ", ";
    out += s.name;
    if (!s.abbrev.empty()) out += " (" + s.abbrev + ")";
  }
  return out;
}

Graph MakeDataset(const DatasetSpec& spec, double scale) {
  QBS_CHECK_GT(scale, 0.0);
  QBS_CHECK(!spec.abbrev.empty() && "dataset has no stand-in");
  // Seed derived from the abbreviation so datasets differ but runs are
  // reproducible.
  uint64_t seed = 0x9bL;
  for (char c : spec.abbrev) seed = seed * 131 + static_cast<uint64_t>(c);

  Graph g;
  switch (spec.kind) {
    case kBarabasiAlbert:
      g = BarabasiAlbert(
          static_cast<VertexId>(std::lround(spec.n * scale)), spec.param,
          seed);
      break;
    case kWattsStrogatz:
      g = WattsStrogatz(
          static_cast<VertexId>(std::lround(spec.n * scale)), spec.param,
          spec.beta, seed);
      break;
    case kRMat: {
      const int extra = static_cast<int>(std::lround(std::log2(scale)));
      const auto s = static_cast<uint32_t>(
          std::max(4, static_cast<int>(spec.rmat_scale) + extra));
      const double rest = (1.0 - spec.rmat_a) / 3.0;
      g = RMat(s, spec.param, spec.rmat_a, rest, rest, seed);
      break;
    }
  }
  return LargestComponent(g).graph;
}

std::string DefaultDataDir() {
  // Read once during dataset resolution, before any worker threads exist;
  // nothing in the process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("QBS_DATA_DIR");
  return env == nullptr || *env == '\0' ? std::string("data")
                                        : std::string(env);
}

std::string RawPathFor(const DatasetSpec& spec, const std::string& data_dir) {
  return (std::filesystem::path(data_dir) / "raw" / spec.file).string();
}

std::string CachePathFor(const DatasetSpec& spec,
                         const std::string& data_dir) {
  return (std::filesystem::path(data_dir) / "cache" / (spec.name + ".qbsgrf"))
      .string();
}

std::optional<ResolvedDataset> ResolveDataset(const std::string& name,
                                              const std::string& data_dir,
                                              double synthetic_scale) {
  const DatasetSpec* spec = FindDataset(name);
  if (spec == nullptr) {
    std::cerr << "ResolveDataset: unknown dataset '" << name
              << "'. Available: " << AvailableDatasetNames() << '\n';
    return std::nullopt;
  }

  ResolvedDataset out;
  out.spec = spec;
  namespace fs = std::filesystem;
  const fs::path raw = RawPathFor(*spec, data_dir);
  const fs::path cache = CachePathFor(*spec, data_dir);
  std::error_code ec;
  const bool have_cache = fs::exists(cache, ec);
  if (have_cache || fs::exists(raw, ec)) {
    if (!have_cache) {
      fs::create_directories(cache.parent_path(), ec);  // best-effort
    }
    bool parsed_raw = false;
    auto graph = LoadOrConvertDataset(raw.string(), cache.string(),
                                      &out.cache_info, &parsed_raw);
    if (graph.has_value()) {
      out.source = parsed_raw ? "raw" : "cache";
      out.graph = std::move(*graph);
      if (spec->host_vertices != 0 &&
          out.cache_info.raw_vertices != spec->host_vertices) {
        std::cerr << "ResolveDataset: " << spec->name << " parsed "
                  << out.cache_info.raw_vertices << " vertices but the host "
                  << "page reports " << spec->host_vertices
                  << " — wrong or truncated file?" << '\n';
      }
      return out;
    }
    std::cerr << "ResolveDataset: local data for '" << spec->name
              << "' unreadable, falling back" << '\n';
  }

  if (spec->abbrev.empty()) {
    std::cerr << "ResolveDataset: no local data for '" << spec->name
              << "' and no synthetic stand-in exists for it. Run: "
              << "tools/fetch_datasets.py --only " << spec->name << '\n';
    return std::nullopt;
  }
  std::cerr << "ResolveDataset: no local data for '" << spec->name
            << "' (expected " << raw.string() << "); using the synthetic "
            << "stand-in " << spec->abbrev << " at scale " << synthetic_scale
            << ". Run tools/fetch_datasets.py --only " << spec->name
            << " for the real graph." << '\n';
  out.source = "stand-in";
  out.graph = MakeDataset(*spec, synthetic_scale);
  return out;
}

}  // namespace qbs
