// The dataset table: one row per network the paper evaluates on (the 12 of
// Table 1), plus Epinions, a small SNAP network kept as the ingestion
// pipeline's smoke dataset. Each row holds the raw file and where to get
// it, the Table 1 reference values, and the parameters of a synthetic
// stand-in.
//
// tools/fetch_datasets.py downloads the raw edge lists into
// <data_dir>/raw/; ResolveDataset converts one once into
// <data_dir>/cache/<name>.qbsgrf (graph/dataset_io.h, largest CC
// extracted) and loads the cache on later runs. When no real data is
// present, as in CI and offline, it generates the stand-in instead, so
// every caller keeps working without a network. Each stand-in reproduces
// the structural regime the QbS results depend on (degree skew, density,
// small diameter) with the matching generator:
//   * Barabási–Albert for social / co-authorship / topology networks with
//     moderate hubs (Douban, DBLP, Skitter, LiveJournal, Orkut);
//   * R-MAT for web/communication graphs with extreme hubs (Youtube,
//     WikiTalk, Baidu, Twitter, uk2007, ClueWeb09);
//   * Watts–Strogatz for Friendster, whose degrees are evenly distributed
//     (the regime where the paper observes near-zero "case (i)" coverage).

#ifndef QBS_WORKLOAD_DATASET_REGISTRY_H_
#define QBS_WORKLOAD_DATASET_REGISTRY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/dataset_io.h"
#include "graph/graph.h"

namespace qbs {

enum class GeneratorKind {
  kBarabasiAlbert,
  kWattsStrogatz,
  kRMat,
};

struct DatasetSpec {
  std::string name;    // table key, lowercase ("douban")
  std::string abbrev;  // Table 1 abbreviation (DO, DB, ..., CW); empty
                       // when the dataset is not in Table 1, and then it
                       // has no stand-in

  // The raw file.
  std::string file;  // filename under <data_dir>/raw/
  std::string url;   // plain edge-list mirror; empty = no such mirror
                     // exists (WebGraph/zip-only hosts), fetch manually
  // Vertex/edge counts the hosting page reports for the raw file (edges as
  // the host counts them, directed for directed sources). Shown by
  // `qbs datasets` and used as a post-parse sanity warning.
  uint64_t host_vertices = 0;
  uint64_t host_edges = 0;

  // Table 1 reference values (the real dataset's largest CC); 0 for
  // datasets not in Table 1.
  double paper_vertices_m = 0.0;  // millions
  double paper_edges_m = 0.0;     // millions
  double paper_avg_deg = 0.0;
  double paper_avg_dist = 0.0;

  // Stand-in generator parameters at scale 1.0.
  GeneratorKind kind = GeneratorKind::kBarabasiAlbert;
  uint32_t n = 0;           // vertices (BA/WS) — RMat uses rmat_scale
  uint32_t param = 0;       // BA: m; WS: k; RMat: edge factor
  double beta = 0.0;        // WS rewiring probability
  uint32_t rmat_scale = 0;  // RMat: log2 of the vertex count
  double rmat_a = 0.0;      // RMat: top-left quadrant probability; the
                            // other three split the rest evenly
};

// Every row: Table 1's 12 datasets in paper order, then Epinions.
const std::vector<DatasetSpec>& Datasets();

// Case-insensitive lookup by name ("dblp") or Table 1 abbreviation ("DB").
// Returns nullptr when unknown.
const DatasetSpec* FindDataset(const std::string& name);

// FindDataset for a dataset with a stand-in (e.g. "DO"); aborts otherwise.
const DatasetSpec& DatasetByAbbrev(const std::string& abbrev);

// Comma-separated "name (ABBREV)" list of every row, for error messages.
std::string AvailableDatasetNames();

// Generates the stand-in of `spec`, which must have one, at the given scale
// factor (vertex count multiplier; R-MAT rounds to the nearest power of two)
// and reduces it to its largest connected component, as is standard for
// the real datasets. Deterministic.
Graph MakeDataset(const DatasetSpec& spec, double scale = 1.0);

// The default data directory: $QBS_DATA_DIR if set, else "data" (relative
// to the working directory, the layout tools/fetch_datasets.py creates).
std::string DefaultDataDir();

// On-disk locations of a dataset's raw file and binary cache under
// `data_dir`.
std::string RawPathFor(const DatasetSpec& spec, const std::string& data_dir);
std::string CachePathFor(const DatasetSpec& spec, const std::string& data_dir);

// A dataset resolved to a concrete graph.
struct ResolvedDataset {
  Graph graph;
  const DatasetSpec* spec = nullptr;  // the dataset's row
  // Where the graph came from: "cache" (binary cache hit), "raw" (raw file
  // parsed and the cache written this run), or "stand-in" (synthetic).
  std::string source;
  // Provenance from the cache header (raw counts, largest-CC flag); all
  // zero for stand-ins.
  DatasetCacheInfo cache_info;
};

// Resolves `name` (a name or Table 1 abbreviation) to a graph:
//   1. <data_dir>/cache/<name>.qbsgrf when present and valid;
//   2. else <data_dir>/raw/<spec.file>, converting and writing the cache;
//   3. else the stand-in generated at `synthetic_scale` (with a stderr
//      notice), when the dataset has one.
// Unknown names and datasets with neither local data nor a stand-in return
// std::nullopt with a message.
std::optional<ResolvedDataset> ResolveDataset(const std::string& name,
                                              const std::string& data_dir,
                                              double synthetic_scale = 1.0);

}  // namespace qbs

#endif  // QBS_WORKLOAD_DATASET_REGISTRY_H_
