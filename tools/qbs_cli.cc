// qbs — command-line front end for the library.
//
//   qbs generate <family> <out.edges> [args...]   synthesize a graph
//   qbs stats    <graph>                          print graph statistics
//   qbs build    <graph> <out.qbs> [opts]         build & save an index
//   qbs query    <graph> <index.qbs|-> [pairs | --requests F] [opts]
//   qbs serve    <graph> <index.qbs|-> [opts]     long-lived query daemon
//   qbs load     <graph> <host> <port> [opts]     drive a daemon with load
//   qbs update   <host> <port> [edits | --file F] send edge edits to a daemon
//   qbs datasets                                  list the dataset registry
//
// <graph> is an edge-list path (".gz" decompressed on the fly) or
// "dataset:<name>" — a real dataset resolved through the binary cache
// under $QBS_DATA_DIR (default data/; populate with
// tools/fetch_datasets.py), falling back to the Table 1 stand-in when no
// data is present.
//
// generate families:
//   ba <n> <m> [seed]           Barabási–Albert
//   er <n> <edges> [seed]       Erdős–Rényi G(n, m)
//   ws <n> <k> <beta> [seed]    Watts–Strogatz
//   rmat <scale> <ef> [seed]    R-MAT (2^scale vertices)
//   dataset <ABBREV> [scale]    Table 1 stand-in (DO, DB, ..., CW)
//
// build options: --landmarks K (default 20), --threads T (default all),
//                --strategy degree|random|deg-weighted|closeness
//
// query: pass '-' as the index path to build one in memory on the fly.
// Pairs come either positionally (u v u v ...) or from --requests FILE
// ('-' = stdin; lines "u v [spg|distance] [budget]", '#' comments).
// --format human|tsv|jsonl selects output. Exit codes: 0 = all queries
// answered, 1 = runtime failure (bad graph/index/request input),
// 2 = usage error.
//
// serve/load quickstart (see docs/REPRODUCING.md for the full runbook):
//   qbs serve graph.edges index.qbs --port 7471 &
//   qbs load  graph.edges 127.0.0.1 7471 --queries 20000 --shutdown

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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
#include "workload/datasets.h"
#include "workload/query_workload.h"
#include "workload/synthetic_workload.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: qbs generate <family> <out.edges> [args...]\n"
      "       qbs stats <graph>\n"
      "       qbs build <graph> <out.qbs> [--landmarks K] "
      "[--threads T] [--strategy S]\n"
      "       qbs query <graph> <index.qbs|-> [u v ...] "
      "[--requests FILE|-] [--mode spg|distance] [--budget N]\n"
      "                 [--format human|tsv|jsonl] [--threads T]\n"
      "       qbs serve <graph> <index.qbs|-> [--host H] [--port P] "
      "[--max-inflight N] [--max-queue N]\n"
      "                 [--max-conns N] [--cache-mb MB] "
      "[--no-remote-shutdown] [--updatable]\n"
      "                 [--read-timeout-ms MS] [--idle-timeout-ms MS] "
      "[--degrade-after-inflight N]\n"
      "       qbs load <graph> <host> <port> [--queries N] [--pairs N] "
      "[--zipf S] [--seed S] [--conns C]\n"
      "                 [--mode spg|distance] [--budget N] [--rate QPS] "
      "[--burst F] [--deadline-ms MS]\n"
      "                 [--no-cache] [--shutdown]\n"
      "       qbs update <host> <port> [--insert U V]... [--delete U V]... "
      "[--file F|-]\n"
      "       qbs datasets\n"
      "<graph>: an edge-list path (.gz ok) or dataset:<name> "
      "(see `qbs datasets`)\n");
  return 2;
}

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
                 resolved->name.c_str(), resolved->graph.NumVertices(),
                 static_cast<unsigned long long>(resolved->graph.NumEdges()),
                 resolved->source.c_str());
    return std::move(resolved->graph);
  }
  return qbs::ReadEdgeListAuto(arg);
}

int Datasets() {
  const std::string data_dir = qbs::DefaultDataDir();
  std::printf("data dir: %s (override with QBS_DATA_DIR)\n", data_dir.c_str());
  std::printf("%-12s %-6s %-9s %-11s %-11s %s\n", "name", "Tbl.1", "status",
              "host|V|", "host|E|", "file");
  for (const auto& spec : qbs::RealDatasets()) {
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
// characters, signs on an unsigned T and values outside T's range are
// rejected rather than truncated or read as 0, so no argument lands on a
// different vertex, edge or size than the one written.
template <typename T>
bool ParseNumber(std::string_view tok, T* out) {
  const char* end = tok.data() + tok.size();
  if constexpr (std::is_floating_point_v<T>) {
    T value = 0;
    const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
    if (ec != std::errc() || ptr != end) return false;
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
        !seed_at(4)) {
      return 2;
    }
    g = qbs::BarabasiAlbert(n, m, seed);
  } else if (family == "er" && argc >= 4) {
    qbs::VertexId n = 0;
    uint64_t edges = 0;
    if (!ParseArg("n", argv[2], &n) || !ParseArg("edges", argv[3], &edges) ||
        !seed_at(4)) {
      return 2;
    }
    g = qbs::LargestComponent(qbs::ErdosRenyi(n, edges, seed)).graph;
  } else if (family == "ws" && argc >= 5) {
    qbs::VertexId n = 0;
    uint32_t k = 0;
    double beta = 0;
    if (!ParseArg("n", argv[2], &n) || !ParseArg("k", argv[3], &k) ||
        !ParseArg("beta", argv[4], &beta) || !seed_at(5)) {
      return 2;
    }
    g = qbs::WattsStrogatz(n, k, beta, seed);
  } else if (family == "rmat" && argc >= 4) {
    uint32_t scale = 0;
    uint32_t edge_factor = 0;
    if (!ParseArg("scale", argv[2], &scale) ||
        !ParseArg("ef", argv[3], &edge_factor) || !seed_at(4)) {
      return 2;
    }
    g = qbs::LargestComponent(
            qbs::RMat(scale, edge_factor, 0.57, 0.19, 0.19, seed))
            .graph;
  } else if (family == "dataset" && argc >= 3) {
    double scale = 1.0;
    if (argc > 3 && !ParseArg("scale", argv[3], &scale)) return 2;
    g = qbs::MakeDataset(qbs::DatasetByAbbrev(argv[2]), scale);
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
  const auto pairs = qbs::SampleQueryPairs(*g, 500, 1);
  const auto dist = qbs::ComputeDistanceDistribution(*g, pairs);
  std::printf("avg distance:    %.2f (over 500 sampled pairs)\n",
              dist.Mean());
  return 0;
}

bool ParseBuildOptions(int argc, char** argv, qbs::QbsOptions* options) {
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--landmarks" && i + 1 < argc) {
      if (!ParseArg("--landmarks", argv[++i], &options->num_landmarks)) {
        return false;
      }
    } else if (a == "--threads" && i + 1 < argc) {
      if (!ParseArg("--threads", argv[++i], &options->num_threads)) {
        return false;
      }
    } else if (a == "--strategy" && i + 1 < argc) {
      const std::string s = argv[++i];
      if (s == "degree") {
        options->landmark_strategy = qbs::LandmarkStrategy::kHighestDegree;
      } else if (s == "random") {
        options->landmark_strategy = qbs::LandmarkStrategy::kRandom;
      } else if (s == "deg-weighted") {
        options->landmark_strategy =
            qbs::LandmarkStrategy::kDegreeWeightedRandom;
      } else if (s == "closeness") {
        options->landmark_strategy = qbs::LandmarkStrategy::kApproxCloseness;
      } else {
        std::fprintf(stderr, "unknown strategy %s\n", s.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int Build(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  qbs::QbsOptions options;
  options.num_threads = 0;
  if (!ParseBuildOptions(argc - 2, argv + 2, &options)) return 2;
  qbs::WallTimer timer;
  qbs::QbsIndex index = qbs::QbsIndex::Build(*g, options);
  std::printf("built |R|=%zu (%s) in %.3fs (labelling %.3fs, delta %.3fs)\n",
              index.landmarks().size(),
              qbs::LandmarkStrategyName(options.landmark_strategy),
              timer.ElapsedSeconds(), index.timings().labeling_seconds,
              index.timings().delta_seconds);
  std::printf("size(L)=%llu bytes, size(Delta)=%llu bytes\n",
              static_cast<unsigned long long>(index.LabelingSizeBytes()),
              static_cast<unsigned long long>(index.DeltaSizeBytes()));
  if (!index.Save(argv[1])) return 1;
  std::printf("saved %s\n", argv[1]);
  return 0;
}

// Loads-or-builds the index for serving/querying ('-' = build in memory).
std::optional<qbs::QbsIndex> LoadOrBuildIndex(const qbs::Graph& g,
                                              const char* index_arg) {
  qbs::QbsOptions options;
  options.num_threads = 0;
  if (std::strcmp(index_arg, "-") == 0) {
    return qbs::QbsIndex::Build(g, options);
  }
  return qbs::QbsIndex::LoadFromFile(g, index_arg, options);
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

// One request per line: "u v [spg|distance] [budget]". Blank lines and
// '#' comments are skipped. Defaults come from the command line.
bool ParseRequestLine(const std::string& line,
                      const qbs::QueryRequest& defaults,
                      qbs::QueryRequest* out, std::string* error) {
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
  *out = defaults;
  if (!ParseNumber(u_tok, &out->u)) return bad("vertex id", u_tok);
  if (!ParseNumber(v_tok, &out->v)) return bad("vertex id", v_tok);
  if (in >> mode_tok) {
    if (!ParseMode(mode_tok, &out->mode)) {
      *error = "unknown mode '" + mode_tok + "'";
      return false;
    }
  }
  if (in >> budget_tok && !ParseNumber(budget_tok, &out->budget)) {
    return bad("budget", budget_tok);
  }
  return true;
}

enum class QueryFormat { kHuman, kTsv, kJsonl };

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

int Query(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* graph_arg = argv[0];
  const char* index_arg = argv[1];

  qbs::QueryRequest defaults;
  QueryFormat format = QueryFormat::kHuman;
  std::string requests_path;
  size_t threads = 0;
  std::vector<qbs::VertexId> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--requests" && i + 1 < argc) {
      requests_path = argv[++i];
    } else if (a == "--mode" && i + 1 < argc) {
      if (!ParseMode(argv[++i], &defaults.mode)) {
        std::fprintf(stderr, "unknown mode %s\n", argv[i]);
        return 2;
      }
    } else if (a == "--budget" && i + 1 < argc) {
      if (!ParseArg("--budget", argv[++i], &defaults.budget)) return 2;
    } else if (a == "--threads" && i + 1 < argc) {
      if (!ParseArg("--threads", argv[++i], &threads)) return 2;
    } else if (a == "--format" && i + 1 < argc) {
      const std::string f = argv[++i];
      if (f == "human") {
        format = QueryFormat::kHuman;
      } else if (f == "tsv") {
        format = QueryFormat::kTsv;
      } else if (f == "jsonl") {
        format = QueryFormat::kJsonl;
      } else {
        std::fprintf(stderr, "unknown format %s\n", f.c_str());
        return 2;
      }
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    } else {
      qbs::VertexId id = 0;
      if (!ParseArg("vertex id", argv[i], &id)) return 2;
      positional.push_back(id);
    }
  }
  if (!requests_path.empty() && !positional.empty()) {
    std::fprintf(stderr,
                 "pass pairs positionally or via --requests, not both\n");
    return 2;
  }
  if (requests_path.empty() &&
      (positional.empty() || positional.size() % 2 != 0)) {
    return Usage();
  }

  auto g = LoadGraphArg(graph_arg);
  if (!g.has_value()) return 1;

  // Assemble the request batch before touching the index, so input errors
  // fail fast (exit 1) without paying for a build.
  std::vector<qbs::QueryRequest> requests;
  if (!requests_path.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (requests_path != "-") {
      file.open(requests_path);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", requests_path.c_str());
        return 1;
      }
      in = &file;
    }
    std::string line;
    size_t line_no = 0;
    while (std::getline(*in, line)) {
      ++line_no;
      const size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      qbs::QueryRequest request;
      std::string error;
      if (!ParseRequestLine(line, defaults, &request, &error)) {
        std::fprintf(stderr, "%s:%zu: %s\n", requests_path.c_str(), line_no,
                     error.c_str());
        return 1;
      }
      requests.push_back(request);
    }
  } else {
    for (size_t i = 0; i + 1 < positional.size(); i += 2) {
      qbs::QueryRequest request = defaults;
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

  auto index = LoadOrBuildIndex(*g, index_arg);
  if (!index.has_value()) return 1;

  if (format == QueryFormat::kHuman) {
    // Sequential so each answer carries its own wall time.
    for (const auto& request : requests) {
      qbs::WallTimer timer;
      const qbs::QueryResponse response = index->Query(request);
      PrintResponseHuman(request, response, timer.ElapsedMillis());
    }
    return 0;
  }

  qbs::QbsIndex::BatchOptions batch_options;
  batch_options.num_threads = threads;
  const std::vector<qbs::QueryResponse> responses =
      index->QueryBatch(requests, batch_options);
  if (format == QueryFormat::kTsv) PrintTsvHeader();
  for (size_t i = 0; i < responses.size(); ++i) {
    if (format == QueryFormat::kTsv) {
      PrintResponseTsv(requests[i], responses[i]);
    } else {
      PrintResponseJsonl(requests[i], responses[i]);
    }
  }
  return 0;
}

std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig); }

int Serve(int argc, char** argv) {
  if (argc < 2) return Usage();
  qbs::server::ServerOptions options;
  bool updatable = false;
  for (int i = 2; i < argc; ++i) {
    // Accept underscore spellings too (--read_timeout_ms et al.).
    std::string a = argv[i];
    std::replace(a.begin(), a.end(), '_', '-');
    if (a == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (a == "--port" && i + 1 < argc) {
      if (!ParseArg("--port", argv[++i], &options.port)) return 2;
    } else if (a == "--max-inflight" && i + 1 < argc) {
      if (!ParseArg("--max-inflight", argv[++i], &options.max_inflight)) {
        return 2;
      }
    } else if (a == "--max-queue" && i + 1 < argc) {
      if (!ParseArg("--max-queue", argv[++i], &options.max_queue)) return 2;
    } else if (a == "--max-conns" && i + 1 < argc) {
      if (!ParseArg("--max-conns", argv[++i], &options.max_connections)) {
        return 2;
      }
    } else if (a == "--cache-mb" && i + 1 < argc) {
      // 32 bits of MiB: the byte count cannot overflow the shift.
      uint32_t mib = 0;
      if (!ParseArg("--cache-mb", argv[++i], &mib)) return 2;
      options.cache_bytes = static_cast<size_t>(mib) << 20;
    } else if (a == "--no-remote-shutdown") {
      options.allow_remote_shutdown = false;
    } else if (a == "--updatable") {
      updatable = true;
    } else if (a == "--read-timeout-ms" && i + 1 < argc) {
      if (!ParseArg("--read-timeout-ms", argv[++i],
                    &options.read_timeout_ms)) {
        return 2;
      }
    } else if (a == "--idle-timeout-ms" && i + 1 < argc) {
      if (!ParseArg("--idle-timeout-ms", argv[++i],
                    &options.idle_timeout_ms)) {
        return 2;
      }
    } else if (a == "--write-timeout-ms" && i + 1 < argc) {
      if (!ParseArg("--write-timeout-ms", argv[++i],
                    &options.write_timeout_ms)) {
        return 2;
      }
    } else if (a == "--degrade-after-inflight" && i + 1 < argc) {
      if (!ParseArg("--degrade-after-inflight", argv[++i],
                    &options.degrade_after_inflight)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    }
  }

  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  auto index = LoadOrBuildIndex(*g, argv[1]);
  if (!index.has_value()) return 1;
  if (updatable) {
    // Snapshots per-landmark BFS state so kUpdateRequest frames can repair
    // columns incrementally instead of rebuilding the index.
    index->EnableUpdates(&*g);
    options.allow_updates = true;
  }

  qbs::server::QueryServer server(*index, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "qbs serve: %s\n", error.c_str());
    return 1;
  }
  // Machine-parseable readiness line (the CI smoke test and the runbook
  // grep for it), flushed before any query lands.
  std::printf(
      "qbs serve: listening on %s:%u (|V|=%u, cache %zu MiB, "
      "read-timeout %ums, idle-timeout %ums, degrade-after %zu)\n",
      options.host.c_str(), server.port(), g->NumVertices(),
      options.cache_bytes >> 20, options.read_timeout_ms,
      options.idle_timeout_ms, options.degrade_after_inflight);
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
  std::printf("  cache: %llu hits / %llu lookups (%.1f%%), %zu entries\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.hits +
                                              stats.cache.misses),
              100.0 * stats.cache.HitRate(), stats.cache.entries);
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

// Parses one edit per line: "i u v" / "insert u v" adds an edge,
// "d u v" / "delete u v" removes one. Blank lines and '#' comments skip.
bool ParseEditLine(const std::string& line, qbs::GraphDelta* delta,
                   std::string* error) {
  std::istringstream in(line);
  std::string op_tok, u_tok, v_tok;
  if (!(in >> op_tok >> u_tok >> v_tok)) {
    *error = "expected 'i|d u v'";
    return false;
  }
  // Anything after the third token joins v's, so "2 junk" is no vertex id.
  std::string rest;
  std::getline(in, rest);
  rest.erase(rest.find_last_not_of(" \t\r") + 1);
  v_tok += rest;
  auto bad_id = [error](const std::string& tok) {
    *error = "bad vertex id '" + tok + "'";
    return false;
  };
  qbs::VertexId u = 0;
  qbs::VertexId v = 0;
  if (!ParseNumber(u_tok, &u)) return bad_id(u_tok);
  if (!ParseNumber(v_tok, &v)) return bad_id(v_tok);
  if (op_tok == "i" || op_tok == "insert") {
    delta->Insert(u, v);
  } else if (op_tok == "d" || op_tok == "delete") {
    delta->Delete(u, v);
  } else {
    *error = "unknown op '" + op_tok + "' (want i|d)";
    return false;
  }
  return true;
}

int Update(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string host = argv[0];
  uint16_t port = 0;
  if (!ParseArg("port", argv[1], &port)) return 2;
  qbs::GraphDelta delta;
  std::string file_path;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    std::replace(a.begin(), a.end(), '_', '-');
    if ((a == "--insert" || a == "--delete") && i + 2 < argc) {
      qbs::VertexId ends[2];
      for (qbs::VertexId& end : ends) {
        if (!ParseNumber(argv[++i], &end)) {
          std::fprintf(stderr, "qbs update: bad vertex id '%s'\n", argv[i]);
          return 1;
        }
      }
      if (a == "--insert") {
        delta.Insert(ends[0], ends[1]);
      } else {
        delta.Delete(ends[0], ends[1]);
      }
    } else if (a == "--file" && i + 1 < argc) {
      file_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (!file_path.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (file_path != "-") {
      file.open(file_path);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", file_path.c_str());
        return 1;
      }
      in = &file;
    }
    std::string line;
    size_t line_no = 0;
    while (std::getline(*in, line)) {
      ++line_no;
      const size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      std::string error;
      if (!ParseEditLine(line, &delta, &error)) {
        std::fprintf(stderr, "%s:%zu: %s\n", file_path.c_str(), line_no,
                     error.c_str());
        return 1;
      }
    }
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

int Load(int argc, char** argv) {
  if (argc < 3) return Usage();
  qbs::WorkloadOptions workload;
  size_t conns = 1;
  bool send_shutdown = false;
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    std::replace(a.begin(), a.end(), '_', '-');
    if (a == "--queries" && i + 1 < argc) {
      if (!ParseArg("--queries", argv[++i], &workload.num_queries)) return 2;
    } else if (a == "--pairs" && i + 1 < argc) {
      if (!ParseArg("--pairs", argv[++i], &workload.num_distinct_pairs)) {
        return 2;
      }
    } else if (a == "--zipf" && i + 1 < argc) {
      if (!ParseArg("--zipf", argv[++i], &workload.zipf_s)) return 2;
    } else if (a == "--seed" && i + 1 < argc) {
      if (!ParseArg("--seed", argv[++i], &workload.seed)) return 2;
    } else if (a == "--conns" && i + 1 < argc) {
      if (!ParseArg("--conns", argv[++i], &conns)) return 2;
      conns = std::max<size_t>(1, conns);
    } else if (a == "--mode" && i + 1 < argc) {
      if (!ParseMode(argv[++i], &workload.mode)) {
        std::fprintf(stderr, "unknown mode %s\n", argv[i]);
        return 2;
      }
    } else if (a == "--budget" && i + 1 < argc) {
      if (!ParseArg("--budget", argv[++i], &workload.budget)) return 2;
    } else if (a == "--rate" && i + 1 < argc) {
      if (!ParseArg("--rate", argv[++i], &workload.arrival_rate_qps)) {
        return 2;
      }
    } else if (a == "--burst" && i + 1 < argc) {
      if (!ParseArg("--burst", argv[++i], &workload.burst_factor)) return 2;
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      if (!ParseArg("--deadline-ms", argv[++i], &workload.deadline_ms)) {
        return 2;
      }
    } else if (a == "--no-cache") {
      workload.flags |= qbs::kQueryFlagNoCache;
    } else if (a == "--shutdown") {
      send_shutdown = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    }
  }
  const std::string host = argv[1];
  uint16_t port = 0;
  if (!ParseArg("port", argv[2], &port)) return 2;

  auto g = LoadGraphArg(argv[0]);
  if (!g.has_value()) return 1;
  const std::vector<qbs::TimedQuery> queries =
      qbs::GenerateWorkload(*g, workload);

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
        const auto target = t0 + std::chrono::nanoseconds(q.arrival_ns);
        std::this_thread::sleep_until(target);
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

  if (send_shutdown) {
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return Generate(argc - 2, argv + 2);
  if (cmd == "stats") return Stats(argc - 2, argv + 2);
  if (cmd == "build") return Build(argc - 2, argv + 2);
  if (cmd == "query") return Query(argc - 2, argv + 2);
  if (cmd == "serve") return Serve(argc - 2, argv + 2);
  if (cmd == "load") return Load(argc - 2, argv + 2);
  if (cmd == "update") return Update(argc - 2, argv + 2);
  if (cmd == "datasets") return Datasets();
  return Usage();
}
