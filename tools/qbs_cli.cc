// qbs — command-line front end for the library. Run without arguments, it
// lists every verb with the options of its table below.
//
// <graph> is an edge-list path (".gz" decompressed on the fly; vertices
// keep the file's ids when those are 0..n-1, and queries name them) or
// "dataset:<name>" — a real dataset resolved through the binary cache
// under $QBS_DATA_DIR (default data/; populate with
// tools/fetch_datasets.py), falling back to the Table 1 stand-in when no
// data is present.
//
// '-' as the index path of `query` or `serve` builds the index in memory
// (the 20 highest-degree vertices as landmarks, as `build` defaults to)
// instead of loading one.
//
// Exit codes: 0 = success, 1 = runtime failure (bad graph, index or
// request input; an unreachable daemon), 2 = usage error.
//
// serve timeouts: --read-timeout-ms bounds a started frame's arrival,
// --idle-timeout-ms reaps a connection with no traffic between frames, and
// --write-timeout-ms bounds a send blocked on a full buffer; all three are
// echoed in the "listening on" readiness line.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "graph/dataset_io.h"
#include "graph/edge_list_io.h"
#include "server/client.h"
#include "server/latency_histogram.h"
#include "server/server.h"
#include "util/timer.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"
#include "workload/synthetic_workload.h"

namespace {

int Usage();

// Resolves a <graph> argument: "dataset:<name>" goes through the real-
// dataset registry (cache -> raw -> stand-in fallback), anything else is
// an edge-list path (gz-aware).
std::optional<qbs::Graph> LoadGraphArg(const std::string& arg) {
  constexpr const char kPrefix[] = "dataset:";
  if (arg.rfind(kPrefix, 0) == 0) {
    auto resolved = qbs::ResolveDataset(arg.substr(sizeof(kPrefix) - 1),
                                        qbs::DefaultDataDir());
    if (!resolved.has_value()) return std::nullopt;
    std::fprintf(stderr, "dataset %s: %u vertices, %llu edges (%s)\n",
                 resolved->spec->name.c_str(), resolved->graph.NumVertices(),
                 static_cast<unsigned long long>(resolved->graph.NumEdges()),
                 resolved->source.c_str());
    return std::move(resolved->graph);
  }
  return qbs::ReadEdgeList(arg);
}

int Datasets(int, char**) {
  const std::string data_dir = qbs::DefaultDataDir();
  std::printf("data dir: %s (override with QBS_DATA_DIR)\n", data_dir.c_str());
  std::printf("%-12s %-6s %-9s %-11s %-11s %s\n", "name", "Tbl.1", "status",
              "host|V|", "host|E|", "file");
  for (const auto& spec : qbs::Datasets()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const bool cached = fs::exists(qbs::CachePathFor(spec, data_dir), ec);
    const bool raw = fs::exists(qbs::RawPathFor(spec, data_dir), ec);
    const char* status = cached ? "cached"
                         : raw  ? "raw"
                         : spec.url.empty() ? "manual"
                                            : "absent";
    std::printf("%-12s %-6s %-9s %-11llu %-11llu %s\n", spec.name.c_str(),
                spec.abbrev.empty() ? "-" : spec.abbrev.c_str(), status,
                static_cast<unsigned long long>(spec.host_vertices),
                static_cast<unsigned long long>(spec.host_edges),
                spec.file.c_str());
  }
  std::printf(
      "\nfetch:   tools/fetch_datasets.py --only <name>   (downloads + "
      "sha256)\nconvert: automatic on first dataset:<name> use (binary "
      "cache under %s/cache)\n",
      data_dir.c_str());
  return 0;
}

// Parses a whole decimal number that fits T. Blanks, trailing
// characters, signs on an unsigned T, values outside T's range and
// non-finite floating-point values are rejected rather than truncated or
// read as 0, so no argument lands on a different vertex, edge, size or
// rate than the one written.
template <typename T>
bool ParseNumber(std::string_view tok, T* out) {
  const char* end = tok.data() + tok.size();
  if constexpr (std::is_floating_point_v<T>) {
    T value = 0;
    const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
    *out = value;
  } else {
    static_assert(std::is_unsigned_v<T>);
    uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc() || ptr != end ||
        value > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = static_cast<T>(value);
  }
  return true;
}

// ParseNumber for a command-line argument: a bad value is reported by the
// argument's name, and the caller exits 2.
template <typename T>
bool ParseArg(const char* name, const char* tok, T* out) {
  if (ParseNumber(tok, out)) return true;
  std::fprintf(stderr, "bad value '%s' for %s\n", tok, name);
  return false;
}

// Checks a parsed argument against the range its consumer takes (the
// generators abort outside their preconditions): a failed test names the
// argument, and the caller exits 2.
bool Require(bool ok, const char* name, const char* tok, const char* want) {
  if (!ok) {
    std::fprintf(stderr, "bad value '%s' for %s (want %s)\n", tok, name,
                 want);
  }
  return ok;
}

bool ParseMode(const std::string& s, qbs::QueryMode* mode) {
  if (s == "spg") {
    *mode = qbs::QueryMode::kSpg;
  } else if (s == "distance" || s == "d") {
    *mode = qbs::QueryMode::kDistance;
  } else {
    return false;
  }
  return true;
}

// In the order of --format's names.
enum class QueryFormat { kHuman, kTsv, kJsonl };

// What the option tables write; each verb reads the fields its own table
// writes.
struct Args {
  qbs::QbsOptions build{.num_threads = 0};
  qbs::QueryRequest query;  // defaults for every requested pair
  QueryFormat format = QueryFormat::kHuman;
  std::string requests;
  qbs::QbsIndex::BatchOptions batch;
  qbs::server::ServerOptions serve;
  qbs::WorkloadOptions load;
  size_t conns = 1;
  bool shutdown = false;
  qbs::GraphDelta edits;
  std::string edit_file;
};

// One row of a verb's option table: its name, a placeholder per value (none
// for a switch), and `apply`, which writes the values or prints why not.
struct Option {
  const char* name;
  std::vector<const char*> values;
  std::function<bool(const char* name, char** values)> apply;
};

// A row that stores its one value in *out: a string as given, a query
// mode by name, a number through ParseArg.
template <typename T>
auto Value(T* out) {
  return [out](const char* name, char** v) {
    if constexpr (std::is_same_v<T, std::string>) {
      *out = v[0];
    } else if constexpr (std::is_same_v<T, qbs::QueryMode>) {
      if (!ParseMode(v[0], out)) {
        std::fprintf(stderr, "unknown mode %s\n", v[0]);
        return false;
      }
    } else {
      return ParseArg(name, v[0], out);
    }
    return true;
  };
}

// A switch that stores `value` in *out.
auto Set(bool* out, bool value) {
  return [out, value](const char*, char**) {
    *out = value;
    return true;
  };
}

// Applies argv's options from `table` in command-line order. Any other
// argument is collected in *operands when that is given, unless it looks
// like an option ("-x"; a lone "-" is an operand). Returns false, with the
// error printed, when the caller should exit 2.
bool ParseOptions(const std::vector<Option>& table, int argc, char** argv,
                  std::vector<const char*>* operands = nullptr) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const auto row =
        std::find_if(table.begin(), table.end(), [arg](const Option& o) {
          return std::strcmp(o.name, arg) == 0;
        });
    if (row == table.end()) {
      if (operands == nullptr || (arg[0] == '-' && arg[1] != '\0')) {
        std::fprintf(stderr, "unknown option %s\n", arg);
        return false;
      }
      operands->push_back(arg);
      continue;
    }
    const int arity = static_cast<int>(row->values.size());
    if (argc - 1 - i < arity) {
      std::fprintf(stderr, "missing value for %s\n", row->name);
      return false;
    }
    if (!row->apply(row->name, argv + i + 1)) return false;
    i += arity;
  }
  return true;
}

// Feeds each line of `path` ('-' = stdin) to `parse`. Returns false, with
// "cannot read path" or "path:line: error" printed, for the caller to exit 1.
bool ForEachLine(
    const std::string& path,
    const std::function<bool(const std::string&, std::string*)>& parse) {
  std::ifstream file;
  if (path != "-") file.open(path);
  std::istream& in = path == "-" ? std::cin : file;
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::string error;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (!parse(line, &error)) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_no,
                   error.c_str());
      return false;
    }
  }
  return true;
}

// MakeDataset's preconditions: its generator's, at the sizes it derives
// from the scale.
bool DatasetScaleOk(const qbs::DatasetSpec& spec, double scale,
                    const char* tok) {
  const double n = std::round(spec.n * scale);
  bool ok = scale > 0.0 && n <= std::numeric_limits<qbs::VertexId>::max();
  switch (spec.kind) {
    case qbs::GeneratorKind::kBarabasiAlbert:
      ok = ok && n > spec.param;
      break;
    case qbs::GeneratorKind::kWattsStrogatz:
      ok = ok && n >= 3 && n > spec.param;
      break;
    case qbs::GeneratorKind::kRMat:
      ok = ok && spec.rmat_scale + std::lround(std::log2(scale)) <= 28;
      break;
  }
  return Require(ok, "scale", tok, "a size the stand-in's generator takes");
}

int Generate(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string family = argv[0];
  const std::string out = argv[1];
  // Every family takes an optional trailing seed (default 1).
  uint64_t seed = 1;
  auto seed_at = [&](int i) {
    return argc <= i || ParseArg("seed", argv[i], &seed);
  };
  qbs::Graph g;
  if (family == "ba" && argc >= 4) {
    qbs::VertexId n = 0;
    uint32_t m = 0;
    if (!ParseArg("n", argv[2], &n) || !ParseArg("m", argv[3], &m) ||
        !seed_at(4) || !Require(m >= 1, "m", argv[3], "at least 1") ||
        !Require(n > m, "n", argv[2], "more than m")) {
      return 2;
    }
    g = qbs::BarabasiAlbert(n, m, seed);
  } else if (family == "er" && argc >= 4) {
    qbs::VertexId n = 0;
    uint64_t edges = 0;
    if (!ParseArg("n", argv[2], &n) || !ParseArg("edges", argv[3], &edges) ||
        !seed_at(4) || !Require(n >= 2, "n", argv[2], "at least 2") ||
        !Require(edges <= uint64_t{n} * (n - 1) / 2, "edges", argv[3],
                 "at most n(n-1)/2")) {
      return 2;
    }
    g = qbs::LargestComponent(qbs::ErdosRenyi(n, edges, seed)).graph;
  } else if (family == "ws" && argc >= 5) {
    qbs::VertexId n = 0;
    uint32_t k = 0;
    double beta = 0;
    if (!ParseArg("n", argv[2], &n) || !ParseArg("k", argv[3], &k) ||
        !ParseArg("beta", argv[4], &beta) || !seed_at(5) ||
        !Require(n >= 3, "n", argv[2], "at least 3") ||
        !Require(k >= 2 && k % 2 == 0 && k < n, "k", argv[3],
                 "an even number from 2 to n - 1") ||
        !Require(beta >= 0.0 && beta <= 1.0, "beta", argv[4],
                 "a probability")) {
      return 2;
    }
    g = qbs::WattsStrogatz(n, k, beta, seed);
  } else if (family == "rmat" && argc >= 4) {
    uint32_t scale = 0;
    uint32_t edge_factor = 0;
    if (!ParseArg("scale", argv[2], &scale) ||
        !ParseArg("ef", argv[3], &edge_factor) || !seed_at(4) ||
        !Require(scale <= 28, "scale", argv[2], "at most 28")) {
      return 2;
    }
    g = qbs::LargestComponent(
            qbs::RMat(scale, edge_factor, 0.57, 0.19, 0.19, seed))
            .graph;
  } else if (family == "dataset" && argc >= 3) {
    const qbs::DatasetSpec* spec = qbs::FindDataset(argv[2]);
    if (spec == nullptr || spec->abbrev.empty()) {
      std::fprintf(stderr, "%s dataset '%s' (want one of",
                   spec == nullptr ? "unknown" : "no stand-in for", argv[2]);
      for (const qbs::DatasetSpec& s : qbs::Datasets()) {
        if (!s.abbrev.empty()) std::fprintf(stderr, " %s", s.abbrev.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    double scale = 1.0;
    if (argc > 3 && (!ParseArg("scale", argv[3], &scale) ||
                     !DatasetScaleOk(*spec, scale, argv[3]))) {
      return 2;
    }
    g = qbs::MakeDataset(*spec, scale);
  } else {
    return Usage();
  }
  if (!qbs::WriteEdgeList(g, out)) return 1;
  std::printf("wrote %s: %u vertices, %llu edges\n", out.c_str(),
              g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()));
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  const auto info = qbs::ConnectedComponents(*g);
  std::printf("vertices:        %u\n", g->NumVertices());
  std::printf("edges:           %llu\n",
              static_cast<unsigned long long>(g->NumEdges()));
  std::printf("max degree:      %u\n", g->MaxDegree());
  std::printf("avg degree:      %.2f\n", g->AverageDegree());
  std::printf("components:      %u (largest %u)\n", info.num_components,
              info.num_components == 0 ? 0 : info.sizes[info.largest]);
  std::printf("adjacency bytes: %llu\n",
              static_cast<unsigned long long>(g->SizeBytes()));
  // A query pair needs two distinct vertices.
  if (g->NumVertices() < 2) {
    std::printf("avg distance:    n/a (fewer than 2 vertices)\n");
    return 0;
  }
  const auto pairs = qbs::SampleQueryPairs(*g, 500, 1);
  const auto dist = qbs::ComputeDistanceDistribution(*g, pairs);
  std::printf("avg distance:    %.2f (over 500 sampled pairs)\n",
              dist.Mean());
  return 0;
}

std::vector<Option> BuildOptions(Args* a) {
  return {
      {"--landmarks", {"K"}, Value(&a->build.num_landmarks)},
      {"--threads", {"T"}, Value(&a->build.num_threads)},
  };
}

int Build(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  if (!ParseOptions(BuildOptions(&args), argc - 2, argv + 2)) return 2;
  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  qbs::WallTimer timer;
  qbs::QbsIndex index = qbs::QbsIndex::Build(*g, args.build);
  std::printf("built |R|=%zu in %.3fs (labelling %.3fs, delta %.3fs)\n",
              index.landmarks().size(), timer.ElapsedSeconds(),
              index.timings().labeling_seconds,
              index.timings().delta_seconds);
  std::printf("size(L)=%llu bytes, size(Delta)=%llu bytes\n",
              static_cast<unsigned long long>(index.LabelingSizeBytes()),
              static_cast<unsigned long long>(index.DeltaSizeBytes()));
  std::printf("landmark adjacency=%llu bytes\n",
              static_cast<unsigned long long>(
                  index.LandmarkAdjacencySizeBytes()));
  if (!index.Save(argv[1])) return 1;
  std::printf("saved %s\n", argv[1]);
  return 0;
}

// Loads-or-builds the index for serving/querying ('-' = build in memory).
std::optional<qbs::QbsIndex> LoadOrBuildIndex(const qbs::Graph& g,
                                              const char* index_arg) {
  const qbs::QbsOptions options{.num_threads = 0};
  if (std::strcmp(index_arg, "-") == 0) return qbs::QbsIndex::Build(g, options);
  return qbs::QbsIndex::LoadFromFile(g, index_arg, options);
}

// One request per line: "u v [spg|distance] [budget]", appended to *out.
// Blank lines and '#' comments are skipped; a token past the budget is an
// error. Defaults come from the command line.
bool ParseRequestLine(const std::string& line,
                      const qbs::QueryRequest& defaults,
                      std::vector<qbs::QueryRequest>* out,
                      std::string* error) {
  const size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos || line[start] == '#') return true;
  std::istringstream in(line);
  std::string u_tok, v_tok, mode_tok, budget_tok;
  if (!(in >> u_tok >> v_tok)) {
    *error = "expected 'u v [spg|distance] [budget]'";
    return false;
  }
  auto bad = [error](const char* what, const std::string& tok) {
    *error = std::string("bad ") + what + " '" + tok + "'";
    return false;
  };
  qbs::QueryRequest request = defaults;
  if (!ParseNumber(u_tok, &request.u)) return bad("vertex id", u_tok);
  if (!ParseNumber(v_tok, &request.v)) return bad("vertex id", v_tok);
  if (in >> mode_tok) {
    if (!ParseMode(mode_tok, &request.mode)) {
      *error = "unknown mode '" + mode_tok + "'";
      return false;
    }
  }
  if (in >> budget_tok && !ParseNumber(budget_tok, &request.budget)) {
    return bad("budget", budget_tok);
  }
  std::string extra_tok;
  if (in >> extra_tok) {
    *error = "unexpected '" + extra_tok + "'";
    return false;
  }
  out->push_back(request);
  return true;
}

void PrintTsvHeader() {
  std::printf("# u\tv\tmode\tbudget\tdistance\tflags\tedge_scans\tedges\n");
}

void PrintResponseTsv(const qbs::QueryRequest& request,
                      const qbs::QueryResponse& response) {
  std::printf("%u\t%u\t%s\t%u\t%lld\t%u\t%llu\t", request.u, request.v,
              request.mode == qbs::QueryMode::kDistance ? "distance" : "spg",
              request.budget,
              response.spg.Connected()
                  ? static_cast<long long>(response.spg.distance)
                  : -1LL,
              response.flags,
              static_cast<unsigned long long>(
                  response.stats.TotalEdgesScanned()));
  if (response.spg.edges.empty()) {
    std::printf("-");
  } else {
    for (size_t i = 0; i < response.spg.edges.size(); ++i) {
      std::printf("%s%u-%u", i == 0 ? "" : ";", response.spg.edges[i].u,
                  response.spg.edges[i].v);
    }
  }
  std::printf("\n");
}

void PrintResponseJsonl(const qbs::QueryRequest& request,
                        const qbs::QueryResponse& response) {
  std::printf("{\"u\":%u,\"v\":%u,\"mode\":\"%s\",\"budget\":%u,", request.u,
              request.v,
              request.mode == qbs::QueryMode::kDistance ? "distance" : "spg",
              request.budget);
  if (response.spg.Connected()) {
    std::printf("\"distance\":%u,", response.spg.distance);
  } else {
    std::printf("\"distance\":null,");
  }
  std::printf("\"flags\":%u,\"cache_hit\":%s,\"edge_scans\":%llu,\"edges\":[",
              response.flags, response.cache_hit ? "true" : "false",
              static_cast<unsigned long long>(
                  response.stats.TotalEdgesScanned()));
  for (size_t i = 0; i < response.spg.edges.size(); ++i) {
    std::printf("%s[%u,%u]", i == 0 ? "" : ",", response.spg.edges[i].u,
                response.spg.edges[i].v);
  }
  std::printf("]}\n");
}

void PrintResponseHuman(const qbs::QueryRequest& request,
                        const qbs::QueryResponse& response, double ms) {
  const auto u = request.u;
  const auto v = request.v;
  if (response.flags & qbs::kResponseFlagBudgetPruned) {
    std::printf("SPG(%u,%u): beyond budget %u (label-certified, %.4f ms)\n",
                u, v, request.budget, ms);
    return;
  }
  if (!response.spg.Connected()) {
    std::printf("SPG(%u,%u): disconnected (%.4f ms)\n", u, v, ms);
    return;
  }
  const auto& spg = response.spg;
  if (request.mode == qbs::QueryMode::kDistance ||
      (response.flags & qbs::kResponseFlagBudgetExceeded) != 0) {
    std::printf("SPG(%u,%u): d=%u (%.4f ms, %llu edge scans)\n", u, v,
                spg.distance, ms,
                static_cast<unsigned long long>(
                    response.stats.TotalEdgesScanned()));
    return;
  }
  std::printf("SPG(%u,%u): d=%u, %zu vertices, %zu edges, %llu paths "
              "(%.4f ms, %llu edge scans)\n",
              u, v, spg.distance, spg.Vertices().size(), spg.edges.size(),
              static_cast<unsigned long long>(spg.CountShortestPaths()), ms,
              static_cast<unsigned long long>(
                  response.stats.TotalEdgesScanned()));
  for (const qbs::Edge& e : spg.edges) {
    std::printf("  %u %u\n", e.u, e.v);
  }
}

std::vector<Option> QueryOptions(Args* a) {
  return {
      {"--requests", {"FILE|-"}, Value(&a->requests)},
      {"--mode", {"spg|distance"}, Value(&a->query.mode)},
      {"--budget", {"N"}, Value(&a->query.budget)},
      {"--format", {"human|tsv|jsonl"},
       [a](const char*, char** v) {
         const std::string_view names[] = {"human", "tsv", "jsonl"};
         const auto it = std::find(std::begin(names), std::end(names), v[0]);
         if (it == std::end(names)) {
           std::fprintf(stderr, "unknown format %s\n", v[0]);
           return false;
         }
         a->format = static_cast<QueryFormat>(it - std::begin(names));
         return true;
       }},
      {"--threads", {"T"}, Value(&a->batch.num_threads)},
  };
}

int Query(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  std::vector<const char*> ids;
  if (!ParseOptions(QueryOptions(&args), argc - 2, argv + 2, &ids)) return 2;
  std::vector<qbs::VertexId> positional(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!ParseArg("vertex id", ids[i], &positional[i])) return 2;
  }
  if (!args.requests.empty() && !positional.empty()) {
    std::fprintf(stderr,
                 "pass pairs positionally or via --requests, not both\n");
    return 2;
  }
  if (args.requests.empty() &&
      (positional.empty() || positional.size() % 2 != 0)) {
    return Usage();
  }

  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;

  // Assemble the request batch before touching the index, so input errors
  // fail fast (exit 1) without paying for a build.
  std::vector<qbs::QueryRequest> requests;
  if (!args.requests.empty()) {
    const auto parse = [&](const std::string& line, std::string* error) {
      return ParseRequestLine(line, args.query, &requests, error);
    };
    if (!ForEachLine(args.requests, parse)) return 1;
  } else {
    for (size_t i = 0; i + 1 < positional.size(); i += 2) {
      qbs::QueryRequest request = args.query;
      request.u = positional[i];
      request.v = positional[i + 1];
      requests.push_back(request);
    }
  }
  for (const auto& request : requests) {
    if (request.u >= g->NumVertices() || request.v >= g->NumVertices()) {
      std::fprintf(stderr, "vertex out of range: %u %u (|V| = %u)\n",
                   request.u, request.v, g->NumVertices());
      return 1;
    }
  }

  auto index = LoadOrBuildIndex(*g, argv[1]);
  if (!index.has_value()) return 1;

  if (args.format == QueryFormat::kHuman) {
    // Sequential so each answer carries its own wall time.
    for (const auto& request : requests) {
      qbs::WallTimer timer;
      const qbs::QueryResponse response = index->Query(request);
      PrintResponseHuman(request, response, timer.ElapsedMillis());
    }
    return 0;
  }

  const std::vector<qbs::QueryResponse> responses =
      index->QueryBatch(requests, args.batch);
  if (args.format == QueryFormat::kTsv) PrintTsvHeader();
  for (size_t i = 0; i < responses.size(); ++i) {
    if (args.format == QueryFormat::kTsv) {
      PrintResponseTsv(requests[i], responses[i]);
    } else {
      PrintResponseJsonl(requests[i], responses[i]);
    }
  }
  return 0;
}

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig); }

std::vector<Option> ServeOptions(Args* a) {
  qbs::server::ServerOptions* o = &a->serve;
  return {
      {"--host", {"H"}, Value(&o->host)},
      {"--port", {"P"}, Value(&o->port)},
      {"--max-inflight", {"N"}, Value(&o->max_inflight)},
      {"--max-queue", {"N"}, Value(&o->max_queue)},
      {"--max-conns", {"N"}, Value(&o->max_connections)},
      {"--cache-mb", {"MB"},
       [o](const char* name, char** v) {
         // 32 bits of MiB: the byte count cannot overflow the shift.
         uint32_t mib = 0;
         if (!ParseArg(name, v[0], &mib)) return false;
         o->cache_bytes = static_cast<size_t>(mib) << 20;
         return true;
       }},
      {"--no-remote-shutdown", {}, Set(&o->allow_remote_shutdown, false)},
      {"--updatable", {}, Set(&o->allow_updates, true)},
      {"--read-timeout-ms", {"MS"}, Value(&o->read_timeout_ms)},
      {"--idle-timeout-ms", {"MS"}, Value(&o->idle_timeout_ms)},
      {"--write-timeout-ms", {"MS"}, Value(&o->write_timeout_ms)},
      {"--degrade-after-inflight", {"N"}, Value(&o->degrade_after_inflight)},
  };
}

int Serve(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  if (!ParseOptions(ServeOptions(&args), argc - 2, argv + 2)) return 2;
  const qbs::server::ServerOptions& options = args.serve;

  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  auto index = LoadOrBuildIndex(*g, argv[1]);
  if (!index.has_value()) return 1;
  // Lets kUpdateRequest frames edit the graph loaded above; each edit
  // repairs the label columns incrementally instead of rebuilding.
  if (options.allow_updates) index->EnableUpdates(&*g);

  qbs::server::QueryServer server(*index, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "qbs serve: %s\n", error.c_str());
    return 1;
  }
  // Machine-parseable readiness line (cli_smoke_test and the runbook read
  // the port and timeouts from it), flushed before any query lands.
  std::printf(
      "qbs serve: listening on %s:%u (|V|=%u, cache %zu MiB, "
      "read-timeout %ums, idle-timeout %ums, write-timeout %ums, "
      "degrade-after %zu)\n",
      options.host.c_str(), server.port(), g->NumVertices(),
      options.cache_bytes >> 20, options.read_timeout_ms,
      options.idle_timeout_ms, options.write_timeout_ms,
      options.degrade_after_inflight);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!server.WaitFor(200)) {
    if (g_signal.load() != 0) server.RequestStop();
  }
  server.Stop();

  const auto stats = server.GetStats();
  std::printf(
      "qbs serve: stopped after %llu queries, %llu updates (%llu busy, "
      "%llu bad, %llu protocol errors, %llu connections)\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.busy_rejections),
      static_cast<unsigned long long>(stats.bad_requests),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.connections_accepted));
  std::printf(
      "  robustness: %llu deadline-exceeded, %llu degraded, "
      "%llu read timeouts, %llu idle reaps\n",
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.read_timeouts),
      static_cast<unsigned long long>(stats.idle_timeouts));
  std::printf(
      "  cache: %llu hits / %llu lookups (%.1f%%), %zu entries, "
      "%llu invalidated by edits\n",
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.hits + stats.cache.misses),
      100.0 * stats.cache.HitRate(), stats.cache.entries,
      static_cast<unsigned long long>(stats.cache.invalidated));
  const auto print_class = [](const char* name,
                              const qbs::server::LatencyHistogram::Snapshot&
                                  snap) {
    if (snap.count == 0) return;
    std::printf("  %-7s n=%llu p50=%.3fms p99=%.3fms p999=%.3fms\n", name,
                static_cast<unsigned long long>(snap.count),
                snap.QuantileMillis(0.50), snap.QuantileMillis(0.99),
                snap.QuantileMillis(0.999));
  };
  print_class("cached", stats.lat_cached);
  print_class("short", stats.lat_short);
  print_class("long", stats.lat_long);
  return 0;
}

std::vector<Option> UpdateOptions(Args* a) {
  // Edits apply in command-line order.
  const auto edit = [a](qbs::EdgeOp op) {
    return [a, op](const char* name, char** v) {
      qbs::EdgeUpdate e{op};
      if (!ParseArg(name, v[0], &e.u) || !ParseArg(name, v[1], &e.v)) {
        return false;
      }
      a->edits.Add(e);
      return true;
    };
  };
  return {
      {"--insert", {"U", "V"}, edit(qbs::EdgeOp::kInsert)},
      {"--delete", {"U", "V"}, edit(qbs::EdgeOp::kDelete)},
      {"--file", {"F|-"}, Value(&a->edit_file)},
  };
}

int Update(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string host = argv[0];
  uint16_t port = 0;
  if (!ParseArg("port", argv[1], &port)) return 2;
  Args args;
  if (!ParseOptions(UpdateOptions(&args), argc - 2, argv + 2)) return 2;
  qbs::GraphDelta& delta = args.edits;
  if (!args.edit_file.empty()) {
    const auto parse = [&delta](const std::string& line, std::string* error) {
      return qbs::ParseEditLine(line, &delta, error);
    };
    if (!ForEachLine(args.edit_file, parse)) return 1;
  }
  if (delta.empty()) {
    std::fprintf(stderr, "qbs update: no edits given\n");
    return 2;
  }

  qbs::server::QueryClient client;
  if (!client.Connect(host, port)) {
    std::fprintf(stderr, "qbs update: connect failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }
  qbs::UpdateStats stats;
  qbs::WallTimer timer;
  const auto status = client.Update(delta, &stats);
  if (status != qbs::server::QueryClient::RpcStatus::kOk) {
    std::fprintf(stderr, "qbs update: %s\n", client.last_error().c_str());
    return 1;
  }
  std::printf(
      "qbs update: applied %llu inserts, %llu deletes "
      "(%llu no-ops, %llu invalid) in %.3fms\n",
      static_cast<unsigned long long>(stats.applied_inserts),
      static_cast<unsigned long long>(stats.applied_deletes),
      static_cast<unsigned long long>(stats.noop_updates),
      static_cast<unsigned long long>(stats.invalid_updates),
      timer.ElapsedMillis());
  std::printf("  columns: %u repaired\n", stats.repaired_columns);
  return 0;
}

std::vector<Option> LoadOptions(Args* a) {
  qbs::WorkloadOptions* w = &a->load;
  return {
      {"--queries", {"N"}, Value(&w->num_queries)},
      {"--pairs", {"N"}, Value(&w->num_distinct_pairs)},
      {"--zipf", {"S"}, Value(&w->zipf_s)},
      {"--seed", {"S"}, Value(&w->seed)},
      {"--conns", {"C"}, Value(&a->conns)},
      {"--mode", {"spg|distance"}, Value(&w->mode)},
      {"--budget", {"N"}, Value(&w->budget)},
      {"--rate", {"QPS"},
       [w](const char* name, char** v) {
         return ParseArg(name, v[0], &w->arrival_rate_qps) &&
                Require(w->arrival_rate_qps >= 0.0, name, v[0], "at least 0");
       }},
      {"--burst", {"F"}, Value(&w->burst_factor)},
      {"--deadline-ms", {"MS"}, Value(&w->deadline_ms)},
      {"--no-cache", {},
       [w](const char*, char**) {
         w->flags |= qbs::kQueryFlagNoCache;
         return true;
       }},
      {"--shutdown", {}, Set(&a->shutdown, true)},
  };
}

int Load(int argc, char** argv) {
  if (argc < 3) return Usage();
  Args args;
  if (!ParseOptions(LoadOptions(&args), argc - 3, argv + 3)) return 2;
  const qbs::WorkloadOptions& workload = args.load;
  const std::string host = argv[1];
  uint16_t port = 0;
  if (!ParseArg("port", argv[2], &port)) return 2;

  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  if (g->NumVertices() < 2) {
    std::fprintf(stderr, "qbs load: a query pair needs 2 vertices, got %u\n",
                 g->NumVertices());
    return 1;
  }
  std::vector<qbs::TimedQuery> queries;
  try {
    queries = qbs::GenerateWorkload(*g, workload);
  } catch (const std::exception& e) {  // std::length_error or std::bad_alloc
    std::fprintf(stderr,
                 "qbs load: cannot allocate %zu queries over %zu pairs (%s)\n",
                 workload.num_queries, workload.num_distinct_pairs, e.what());
    return 1;
  }
  // A worker past the last query would claim nothing.
  const size_t conns =
      std::clamp<size_t>(args.conns, 1, std::max<size_t>(queries.size(), 1));

  // One connection per worker; workers claim queries through a shared
  // cursor (with conns=1 this is exactly the workload order, which is what
  // makes single-connection hit-rates reproducible).
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> ok{0}, hits{0}, degraded{0}, busy_retries{0},
      reconnects{0}, shed{0}, deadline_exceeded{0}, errors{0};
  std::atomic<uint32_t> max_queue_depth{0};
  qbs::server::LatencyHistogram latency;
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&](size_t worker_id) {
    qbs::server::QueryClient client;
    if (!client.Connect(host, port)) {
      errors.fetch_add(1);
      return;
    }
    // Deterministic exponential backoff with seeded jitter (per-worker
    // stream) instead of the old fixed-sleep busy loop; the server's
    // retry_after hint floors each delay.
    qbs::server::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.base_backoff_ms = 5;
    policy.max_backoff_ms = 200;
    policy.seed = workload.seed ^ (0x9e3779b97f4a7c15ull * (worker_id + 1));
    for (;;) {
      const size_t i = cursor.fetch_add(1);
      if (i >= queries.size()) break;
      const qbs::TimedQuery& q = queries[i];
      if (q.arrival_ns > 0) {
        // The rest of the wait, not t0 plus it: an arrival capped at
        // nanoseconds::max() would overflow the time_point.
        std::this_thread::sleep_for(std::chrono::nanoseconds(q.arrival_ns) -
                                    (std::chrono::steady_clock::now() - t0));
      }
      const auto qt0 = std::chrono::steady_clock::now();
      qbs::QueryResponse response;
      qbs::server::RetryStats rstats;
      const auto status =
          client.QueryWithRetry(q.request, &response, policy, &rstats);
      busy_retries.fetch_add(rstats.busy_retries);
      reconnects.fetch_add(rstats.reconnects);
      uint32_t depth = rstats.last_queue_depth;
      uint32_t seen = max_queue_depth.load();
      while (depth > seen &&
             !max_queue_depth.compare_exchange_weak(seen, depth)) {
      }
      switch (status) {
        case qbs::server::QueryClient::RpcStatus::kOk:
          ok.fetch_add(1);
          if (response.cache_hit) hits.fetch_add(1);
          if (response.degraded()) degraded.fetch_add(1);
          break;
        case qbs::server::QueryClient::RpcStatus::kBusy:
          shed.fetch_add(1);  // still busy after every retry: load shed
          break;
        case qbs::server::QueryClient::RpcStatus::kDeadlineExceeded:
          deadline_exceeded.fetch_add(1);
          break;
        default:
          errors.fetch_add(1);
          if (status ==
                  qbs::server::QueryClient::RpcStatus::kTransportError &&
              !client.connected()) {
            return;  // retries (and reconnects) exhausted
          }
          break;
      }
      latency.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - qt0)
              .count()));
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(conns);
  for (size_t c = 0; c < conns; ++c) workers.emplace_back(worker, c);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto snap = latency.GetSnapshot();
  const uint64_t answered = ok.load();
  std::printf("qbs load: %llu/%zu ok in %.3fs (%.0f q/s, %zu conns)\n",
              static_cast<unsigned long long>(answered), queries.size(),
              elapsed, elapsed > 0 ? static_cast<double>(answered) / elapsed
                                   : 0.0,
              conns);
  std::printf(
      "  hit-rate %.4f (%llu hits), %llu busy retries, %llu reconnects, "
      "%llu errors\n",
      answered > 0 ? static_cast<double>(hits.load()) /
                         static_cast<double>(answered)
                   : 0.0,
      static_cast<unsigned long long>(hits.load()),
      static_cast<unsigned long long>(busy_retries.load()),
      static_cast<unsigned long long>(reconnects.load()),
      static_cast<unsigned long long>(errors.load()));
  std::printf(
      "  shed %llu (%.2f%% of %zu), %llu deadline-exceeded, "
      "%llu degraded, max queue depth %u\n",
      static_cast<unsigned long long>(shed.load()),
      queries.empty() ? 0.0
                      : 100.0 * static_cast<double>(shed.load()) /
                            static_cast<double>(queries.size()),
      queries.size(),
      static_cast<unsigned long long>(deadline_exceeded.load()),
      static_cast<unsigned long long>(degraded.load()),
      max_queue_depth.load());
  std::printf("  p50=%.3fms p99=%.3fms p999=%.3fms mean=%.3fms\n",
              snap.QuantileMillis(0.50), snap.QuantileMillis(0.99),
              snap.QuantileMillis(0.999), snap.MeanMillis());

  if (args.shutdown) {
    qbs::server::QueryClient client;
    if (!client.Connect(host, port) || !client.Shutdown()) {
      std::fprintf(stderr, "qbs load: shutdown request failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    std::printf("qbs load: server acknowledged shutdown\n");
  }
  return errors.load() == 0 ? 0 : 1;
}

// A verb: its name, its operands (each after a space) and option table
// for the usage text, and what runs it.
struct Verb {
  const char* name;
  const char* operands;
  int (*run)(int argc, char** argv);
  std::vector<Option> (*options)(Args* args);
};

const Verb kVerbs[] = {
    {"generate", " <family> <out.edges> [args...]", Generate, nullptr},
    {"stats", " <graph>", Stats, nullptr},
    {"build", " <graph> <out.qbs>", Build, BuildOptions},
    {"query", " <graph> <index.qbs|-> [u v ...]", Query, QueryOptions},
    {"serve", " <graph> <index.qbs|->", Serve, ServeOptions},
    {"load", " <graph> <host> <port>", Load, LoadOptions},
    {"update", " <host> <port>", Update, UpdateOptions},
    {"datasets", "", Datasets, nullptr},
};

// Prints every verb with its operands and options, wrapped at 100
// columns; the caller exits 2.
int Usage() {
  Args unused;  // the tables bind to it; the usage text applies no row
  std::string text;
  for (const Verb& verb : kVerbs) {
    std::string line = (text.empty() ? "usage: qbs " : "       qbs ") +
                       std::string(verb.name) + verb.operands;
    for (const Option& option :
         verb.options ? verb.options(&unused) : std::vector<Option>()) {
      std::string word = std::string(" [") + option.name;
      for (const char* value : option.values) word += std::string(" ") + value;
      word += "]";
      if (line.size() + word.size() > 100) {
        text += line + "\n";
        line = std::string(16, ' ');
      }
      line += word;
    }
    text += line + "\n";
  }
  std::fprintf(stderr,
               "%s<graph>: an edge-list path (.gz ok) or dataset:<name> (see "
               "`qbs datasets`)\n",
               text.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const Verb& verb : kVerbs) {
    if (argc >= 2 && std::strcmp(argv[1], verb.name) == 0) {
      return verb.run(argc - 2, argv + 2);
    }
  }
  return Usage();
}
