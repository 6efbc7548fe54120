// The oracle driver: one seeded checker over every query surface.
//
// A case is a graph family and seed, a landmark rule and |R|, the build's
// thread count, a fault plan, edit batches and a pair set. RunCase builds
// the index, applies each batch, then saves and reloads it. At each of
// these states it checks the index against SpgByDoubleBfs (Definition 2.2)
// and against a fresh build on the edited graph, which Lemma 5.2 makes
// bit-exact: after each update, every query answers on the current graph.
// One updatable loopback QueryServer, its cache on, serves the case from
// the build on: each batch goes through QueryClient::Update, and the
// cached requests whose prescribed answer the batch moved are asked again
// after it. A faulted case then serves its final state from a second
// daemon under the plan's injected faults: each answer is the oracle's, a
// degraded one whose bounds bracket the oracle's distance, or a typed
// error.
//
// Checks return a message instead of asserting. A failing case is shrunk
// (batches, then edits, then pairs) and printed as one line, which
// kRegressions replays before the seeded cases. Seeds come from
// QBS_DYNAMIC_SEEDS (comma-separated), default 1..16. Each case's line is
// printed and flushed before the case runs, so when a QBS_CHECK aborts
// the process, the last printed line is the replay line.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "graph/graph_delta.h"
#include "server/client.h"
#include "server/fault_injection.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

using Pair = std::pair<VertexId, VertexId>;
using Batch = std::vector<EdgeUpdate>;

// Shrunk lines of failures the driver found; each replays first.
constexpr const char* kRegressions[] = {
    "family=grid seed=2 rule=degree R=8 threads=4 edits=\"\" pairs=\"6-27\"",
    "family=er-lcc seed=11 rule=random R=20 threads=1 edits=\"i 258 289\" "
    "pairs=\"215-305\"",
    "family=er-lcc seed=1 rule=degree R=1 threads=1 edits=\"d 55 213\" "
    "pairs=\"\"",
    "family=er-lcc seed=1 rule=degree R=1 threads=1 edits=\"\" "
    "pairs=\"266-322\"",
    "family=er-lcc seed=1 rule=degree R=1 threads=1 edits=\"\" pairs=\"\"",
    "family=er seed=11 rule=random R=20 threads=1 edits=\"i 123 35\" "
    "pairs=\"157-0\"",
};

constexpr std::string_view kFamilies =
    "ba er er-lcc ws rmat grid tree path small deep";
constexpr int kNumFamilies = 10;
constexpr int kDeep = 9;
constexpr uint32_t kAllLandmarks = std::numeric_limits<uint32_t>::max();

// Faults on the client's socket and on every connection of the faulted
// daemon, the requests' deadline, and the daemon's admission limits.
struct FaultPlan {
  const char* name;
  server::FaultSpec client{};
  server::FaultSpec server{};
  uint32_t deadline_ms = kNoDeadline;
  size_t max_inflight = 4;
  size_t degrade_after_inflight = 0;
};

constexpr server::FaultSpec Combined(uint64_t seed) {
  return {.seed = seed,
          .short_send_rate = 0.3,
          .short_recv_rate = 0.3,
          .stall_rate = 0.1,
          .stall_ms = 2,
          .reset_rate = 0.02,
          .torn_frame_rate = 0.05};
}

// Entry 0 is fault-free; a case line names any other as fault=<name>.
const FaultPlan kFaultPlans[] = {
    {.name = "none"},
    // Client reads arrive in tiny chunks: FrameReader reassembly.
    {.name = "client-short-reads",
     .client = {.seed = 11, .short_recv_rate = 0.8}},
    // Client writes fragment and stall under the daemon's read timeout.
    {.name = "client-short-writes-stalls",
     .client = {.seed = 22,
                .short_send_rate = 0.8,
                .stall_rate = 0.15,
                .stall_ms = 2}},
    // Torn request frames: the daemon drops the stream, the client
    // reconnects.
    {.name = "client-torn-frames",
     .client = {.seed = 33, .torn_frame_rate = 0.2}},
    {.name = "client-resets", .client = {.seed = 44, .reset_rate = 0.04}},
    // Responses fragment and stall: client-side reassembly.
    {.name = "server-short-writes-stalls",
     .server = {.seed = 55,
                .short_send_rate = 0.7,
                .stall_rate = 0.1,
                .stall_ms = 2}},
    {.name = "server-resets", .server = {.seed = 66, .reset_rate = 0.04}},
    // Slow queries against tight deadlines: kDeadlineExceeded, never a
    // late execution.
    {.name = "slow-queries-tight-deadline",
     .server = {.seed = 77, .query_delay_rate = 0.5, .query_delay_ms = 30},
     .deadline_ms = 10,
     .max_inflight = 2},
    // A hog holds the one slot: the overflow is answered from the labels.
    {.name = "saturation-degrades",
     .server = {.seed = 88, .query_delay_rate = 1.0, .query_delay_ms = 15},
     .max_inflight = 1,
     .degrade_after_inflight = 1},
    {.name = "combined-a", .client = Combined(99), .server = Combined(100)},
    {.name = "combined-b",
     .client = Combined(101),
     .server = Combined(102),
     .deadline_ms = 2000},
};
constexpr size_t kNumFaultPlans = std::size(kFaultPlans);

struct Case {
  int family = 0;  // index into kFamilies's names
  uint64_t seed = 0;
  bool random_landmarks = false;
  uint32_t num_landmarks = 0;  // kAllLandmarks: |R| = |V|
  size_t threads = 1;
  size_t fault = 0;  // index into kFaultPlans
  std::vector<Batch> batches;
  bool all_pairs = false;  // every ordered pair, u = v included
  std::vector<Pair> pairs;

  friend bool operator==(const Case&, const Case&) = default;
};

bool ParseU64(std::string_view s, uint64_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (size_t end = s.find(sep);; end = s.find(sep)) {
    parts.push_back(s.substr(0, end));
    if (end == std::string_view::npos) return parts;
    s.remove_prefix(end + 1);
  }
}

// A 240-vertex path with 8 short chords in its first two thirds: deleting
// a path edge under a chord deepens a long stretch, and one in the tail
// cuts the rest off.
Graph DeepGraph(uint64_t seed) {
  constexpr VertexId kN = 240;
  std::mt19937_64 rng(seed);
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < kN; ++v) edges.emplace_back(v, v + 1);
  for (int c = 0; c < 8; ++c) {
    const auto a = static_cast<VertexId>(rng() % (2 * kN / 3 - 30));
    edges.emplace_back(a, a + 2 + static_cast<VertexId>(rng() % 28));
  }
  return Graph::FromEdges(kN, std::move(edges));
}

Graph FamilyGraph(int family, uint64_t seed) {
  if (family == 0) return BarabasiAlbert(200, 3, seed);
  if (family == 1) return ErdosRenyi(160, 200, seed);  // isolated vertices
  if (family == 2) return LargestComponent(ErdosRenyi(350, 600, seed)).graph;
  if (family == 3) return WattsStrogatz(180, 4, 0.1, seed);
  if (family == 4) {
    return LargestComponent(RMat(9, 4, 0.57, 0.19, 0.19, seed)).graph;
  }
  if (family == 5) return GridGraph(10, 12);
  if (family == 6) return CompleteBinaryTree(255);
  if (family == 7) return PathGraph(90);
  if (family == 8) {
    return testing::RandomConnectedGraph(static_cast<VertexId>(16 + seed % 35),
                                         static_cast<uint32_t>(seed * 7 % 100),
                                         seed);
  }
  return DeepGraph(seed);
}

std::vector<VertexId> Landmarks(const Graph& g, const Case& c) {
  return c.random_landmarks
             ? testing::RandomLandmarks(g, c.num_landmarks, c.seed)
             : SelectLandmarks(g, c.num_landmarks);
}

std::vector<Pair> AllPairs(VertexId n) {
  std::vector<Pair> pairs;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

// The edge set after `batch`, by the script semantics of graph_delta.h;
// independent of ComputeNetChanges and the splice.
void ApplyToModel(const Batch& batch, VertexId n, std::set<Edge>* edges) {
  for (const EdgeUpdate& e : batch) {
    if (e.u == e.v || e.u >= n || e.v >= n) continue;
    if (e.op == EdgeOp::kInsert) {
      edges->insert(Edge(e.u, e.v).Normalized());
    } else {
      edges->erase(Edge(e.u, e.v).Normalized());
    }
  }
}

// Three cases per seed, one per script shape: 3 batches of 10 mixed ops,
// 10 batches clustered on hot vertices, and 120 alternating single-edge
// batches on the deep family. At seeds 1..16 the rotations below draw
// every family in both the mixed and the hot shape, and every |R|,
// landmark rule and thread count; the mixed shape also rotates through
// kFaultPlans, so seeds 1..10 draw each fault plan once.
std::vector<Case> DrawCases(uint64_t seed) {
  constexpr uint32_t kR[] = {0, 1, 2, 8, 20, 50, kAllLandmarks};
  std::vector<Case> cases;
  for (uint64_t shape = 0; shape < 3; ++shape) {
    Case c;
    c.family = shape == 2 ? kDeep
                          : static_cast<int>((seed + 3 * shape) % kNumFamilies);
    c.seed = seed;
    c.random_landmarks = (seed / 2 + shape) % 2 == 1;
    c.num_landmarks = kR[(seed + shape) % 7];
    c.threads = (seed / 4 + shape) % 2 == 0 ? 1 : 4;
    c.fault = shape == 0 ? seed % kNumFaultPlans : 0;
    std::mt19937_64 rng(seed * 3 + shape);
    const Graph g = FamilyGraph(c.family, seed);
    const VertexId n = g.NumVertices();
    auto vertex = [&] { return static_cast<VertexId>(rng() % n); };
    const std::vector<Edge> initial = g.EdgeList();
    std::set<Edge> edges(initial.begin(), initial.end());
    auto existing = [&] {
      return *std::next(edges.begin(), static_cast<long>(rng() % edges.size()));
    };
    const VertexId hot[] = {0, n - 1, vertex(), vertex()};
    auto draw = [&](int b) -> EdgeUpdate {
      const uint64_t roll = rng() % 100;
      const bool at_hot = shape == 1 && roll % 2 == 0;
      const VertexId a = at_hot ? hot[rng() % 4] : vertex();
      if (shape == 2 && b % 2 == 0) {
        // Mostly short chords, so the graph stays deep; now and then any
        // pair, which can reconnect a cut-off tail.
        const VertexId hop = 2 + static_cast<VertexId>(rng() % 20);
        return {EdgeOp::kInsert, a,
                roll < 25 ? vertex() : std::min(n - 1, a + hop)};
      }
      if (shape == 1 && (roll < 50 || g.Degree(a) == 0)) {
        return {EdgeOp::kInsert, a, vertex()};
      }
      if (shape == 1) {
        return {EdgeOp::kDelete, a, g.Neighbors(a)[rng() % g.Degree(a)]};
      }
      if (shape == 0 && roll < 45) return {EdgeOp::kInsert, a, vertex()};
      if (shape == 2 || (roll < 85 && !edges.empty())) {
        const Edge e = existing();
        return {EdgeOp::kDelete, e.u, e.v};
      }
      if (roll < 94) return {EdgeOp::kDelete, a, vertex()};  // likely no-op
      return {EdgeOp::kInsert, a, roll < 97 ? a : n + 7};  // invalid
    };
    const int num_batches = shape == 0 ? 3 : shape == 1 ? 10 : 120;
    for (int b = 0; b < num_batches; ++b) {
      Batch batch;
      const uint64_t ops = shape == 0 ? 10 : shape == 1 ? 1 + rng() % 12 : 1;
      for (uint64_t i = 0; i < ops; ++i) batch.push_back(draw(b));
      ApplyToModel(batch, n, &edges);
      c.batches.push_back(std::move(batch));
    }

    c.all_pairs = n <= 50;
    if (!c.all_pairs) {
      for (const auto& [u, v] : SampleQueryPairs(g, 25, rng())) {
        c.pairs.emplace_back(u, v);
      }
      for (int i = 0; i < 10; ++i) {  // adjacent and two-hop pairs
        const VertexId u = vertex();
        if (g.Degree(u) == 0) continue;
        const VertexId w = g.Neighbors(u)[rng() % g.Degree(u)];
        c.pairs.emplace_back(u, w);
        c.pairs.emplace_back(u, g.Neighbors(w)[rng() % g.Degree(w)]);
      }
      const std::vector<VertexId> landmarks = Landmarks(g, c);
      for (size_t i = 0; i < std::min<size_t>(landmarks.size(), 6); ++i) {
        c.pairs.emplace_back(landmarks[i], vertex());
        if (i > 0) c.pairs.emplace_back(landmarks[i - 1], landmarks[i]);
      }
      const VertexId self = landmarks.empty() ? vertex() : landmarks[0];
      c.pairs.emplace_back(self, self);
      const ComponentInfo components = ConnectedComponents(g);
      for (int i = 0; i < 20 && components.num_components > 1; ++i) {
        const Pair p{vertex(), vertex()};
        if (components.component[p.first] != components.component[p.second]) {
          c.pairs.push_back(p);
        }
      }
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string Line(const Case& c) {
  std::ostringstream out;
  out << "family=" << Split(kFamilies, ' ')[c.family] << " seed=" << c.seed
      << " rule=" << (c.random_landmarks ? "random" : "degree") << " R="
      << (c.num_landmarks == kAllLandmarks ? "all"
                                           : std::to_string(c.num_landmarks))
      << " threads=" << c.threads;
  if (c.fault != 0) out << " fault=" << kFaultPlans[c.fault].name;
  out << " edits=\"";
  for (size_t b = 0; b < c.batches.size(); ++b) {
    for (size_t i = 0; i < c.batches[b].size(); ++i) {
      const EdgeUpdate& e = c.batches[b][i];
      out << (i > 0 ? "; " : b > 0 ? " | " : "")
          << (e.op == EdgeOp::kInsert ? "i " : "d ") << e.u << ' ' << e.v;
    }
    if (c.batches[b].empty()) out << (b > 0 ? " | " : "");
  }
  out << "\" pairs=" << (c.all_pairs ? "all" : "\"");
  for (size_t i = 0; i < c.pairs.size(); ++i) {
    out << (i > 0 ? " " : "") << c.pairs[i].first << '-' << c.pairs[i].second;
  }
  return out.str() + (c.all_pairs ? "" : "\"");
}

// The value of `key` in a case line: up to the next space, or between
// quotes; empty when the key is absent.
std::string_view Field(std::string_view line, const std::string& key) {
  const size_t at = (" " + std::string(line)).find(" " + key + "=");
  if (at == std::string::npos) return {};
  line.remove_prefix(at + key.size() + 1);
  if (!line.starts_with('"')) return line.substr(0, line.find(' '));
  return line.substr(1, line.find('"', 1) - 1);
}

// Parses a line that Line() printed.
std::optional<Case> ParseCase(std::string_view line, std::string* error) {
  Case c;
  uint64_t landmarks = 0;
  uint64_t threads = 0;
  const std::vector<std::string_view> names = Split(kFamilies, ' ');
  c.family = static_cast<int>(
      std::find(names.begin(), names.end(), Field(line, "family")) -
      names.begin());
  c.random_landmarks = Field(line, "rule") == "random";
  const bool all = Field(line, "R") == "all";
  if (c.family == kNumFamilies || !ParseU64(Field(line, "seed"), &c.seed) ||
      (!c.random_landmarks && Field(line, "rule") != "degree") ||
      (!all && !ParseU64(Field(line, "R"), &landmarks)) ||
      !ParseU64(Field(line, "threads"), &threads)) {
    *error = "bad or missing family, seed, rule, R or threads";
    return std::nullopt;
  }
  c.num_landmarks = all ? kAllLandmarks : static_cast<uint32_t>(landmarks);
  c.threads = threads;
  // A line without the fault field is fault-free.
  const std::string_view fault = Field(line, "fault");
  while (!fault.empty() && c.fault < kNumFaultPlans &&
         kFaultPlans[c.fault].name != fault) {
    ++c.fault;
  }
  if (c.fault == kNumFaultPlans) {
    *error = "unknown fault plan '" + std::string(fault) + "'";
    return std::nullopt;
  }
  const std::string_view edits = Field(line, "edits");
  for (const std::string_view batch : Split(edits, '|')) {
    if (edits.empty()) break;
    GraphDelta delta;
    for (const std::string_view edit : Split(batch, ';')) {
      if (!ParseEditLine(edit, &delta, error)) return std::nullopt;
    }
    c.batches.push_back(delta.updates());
  }
  const std::string_view pairs = Field(line, "pairs");
  c.all_pairs = pairs == "all";
  for (const std::string_view pair : Split(pairs, ' ')) {
    if (pairs.empty() || c.all_pairs) break;
    const size_t dash = pair.find('-');
    uint64_t u = 0;
    uint64_t v = 0;
    if (dash == pair.npos || !ParseU64(pair.substr(0, dash), &u) ||
        !ParseU64(pair.substr(dash + 1), &v) ||
        std::max(u, v) > std::numeric_limits<VertexId>::max()) {
      *error = "bad pair '" + std::string(pair) + "'";
      return std::nullopt;
    }
    c.pairs.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return c;
}

// One request, the index of its pair, and the oracle's SPG for the pair.
struct Asked {
  QueryRequest request;
  size_t pair = 0;
  ShortestPathGraph oracle;
};

// The oracle's SPG of each pair on `g`.
std::vector<ShortestPathGraph> Oracles(const Graph& g,
                                       const std::vector<Pair>& pairs) {
  std::map<VertexId, std::vector<uint32_t>> dist;
  auto bfs = [&](VertexId x) -> const std::vector<uint32_t>& {
    auto [it, inserted] = dist.try_emplace(x);
    if (inserted) it->second = BfsDistances(g, x);
    return it->second;
  };
  std::vector<ShortestPathGraph> oracles;
  for (const auto& [u, v] : pairs) {
    oracles.push_back(SpgFromDistances(g, u, v, bfs(u), bfs(v)));
  }
  return oracles;
}

// Each pair asked five ways: the SPG, the distance, and SPGs budgeted at
// d - 1, d and d + 1 where those budgets are positive.
std::vector<Asked> Requests(const std::vector<Pair>& pairs,
                            const std::vector<ShortestPathGraph>& oracles) {
  std::vector<Asked> asked;
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto [u, v] = pairs[p];
    const ShortestPathGraph& oracle = oracles[p];
    const uint32_t d = oracle.distance;
    asked.push_back({{u, v}, p, oracle});
    asked.push_back({{u, v, QueryMode::kDistance}, p, oracle});
    for (uint32_t b = d > 0 ? d - 1 : 1; d != kUnreachable && b <= d + 1; ++b) {
      if (b > 0) asked.push_back({{u, v, QueryMode::kSpg, b}, p, oracle});
    }
  }
  return asked;
}

// The answer the oracle prescribes for `q`, a budget below d resolved by
// the search: exceeded with the exact distance, or plain kUnreachable for
// a disconnected pair. Distance-only and past-budget answers stop before
// the edges.
QueryResponse Prescribed(const Asked& q) {
  const QueryRequest& r = q.request;
  QueryResponse want;
  want.spg = q.oracle;
  const bool past_budget = r.budget > 0 && r.budget < q.oracle.distance;
  if (r.mode == QueryMode::kDistance || past_budget) want.spg.edges.clear();
  if (past_budget && q.oracle.Connected()) {
    want.flags = kResponseFlagBudgetExceeded;
  }
  return want;
}

// "" when `got` is the prescribed answer for `q`, or, for a budget below
// d, the labels' certificate (pruned, distance unknown). Work counters are
// checked where the response carries them, not through the wire: a
// stopped query scans no reverse or recover edge, and a full one never
// scans more reverse edges than it searched.
std::string CheckAnswer(const Asked& q, const QueryResponse& got,
                        bool check_stats) {
  const QueryRequest& r = q.request;
  const bool past_budget = r.budget > 0 && r.budget < q.oracle.distance;
  const bool stopped = r.mode == QueryMode::kDistance || past_budget;
  QueryResponse want = Prescribed(q);
  if (past_budget && got.flags == kResponseFlagBudgetPruned) {
    want.flags = kResponseFlagBudgetPruned;
    want.spg.distance = kUnreachable;
  }
  const SearchStats& s = got.stats;
  const bool stats_ok =
      !check_stats ||
      (stopped ? s.edges_scanned_reverse == 0 && s.edges_scanned_recover == 0
               : s.edges_scanned_reverse <= s.edges_scanned_search);
  if (SameAnswer(got, want) && stats_ok) return "";
  return "pair " + std::to_string(r.u) + "-" + std::to_string(r.v) +
         (r.mode == QueryMode::kSpg ? " spg" : " distance") + " budget " +
         std::to_string(r.budget) + ": got d=" +
         std::to_string(got.spg.distance) + " flags=" +
         std::to_string(got.flags) + " with " +
         std::to_string(got.spg.edges.size()) + " of " +
         std::to_string(want.spg.edges.size()) + " edges";
}

// The state checks: the graph is `want` (FromEdges on the edited edge
// list) bit for bit, the index equals a fresh build, its derived depths
// and landmark bits match `want`, and Query and QueryBatch answer every
// request as the oracle prescribes.
std::string CheckState(const Graph& want, const QbsIndex& index,
                       const QbsOptions& options,
                       const std::vector<Asked>& asked) {
  const Graph& g = index.graph();
  if (!std::ranges::equal(g.RawOffsets(), want.RawOffsets()) ||
      !std::ranges::equal(g.RawAdjacency(), want.RawAdjacency())) {
    return "spliced CSR differs from FromEdges on the edited edge list";
  }
  const QbsIndex fresh =
      QbsIndex::BuildWithLandmarks(want, index.landmarks(), options);
  for (const std::string& failure :
       {testing::SchemeMismatch(index, fresh),
        testing::DepthsMismatch(want, index),
        testing::AdjacencyMismatch(want, index)}) {
    if (!failure.empty()) return failure;
  }
  std::vector<QueryRequest> requests;
  for (const Asked& q : asked) requests.push_back(q.request);
  QbsIndex::BatchOptions four;
  four.num_threads = 4;
  const std::vector<QueryResponse> batch = index.QueryBatch(requests, four);
  for (size_t i = 0; i < asked.size(); ++i) {
    const QueryResponse got = index.Query(requests[i]);
    const std::string failure = CheckAnswer(asked[i], got, true);
    if (!failure.empty()) return failure;
    if (!SameAnswer(batch[i], got)) {
      return "QueryBatch differs from Query on pair " +
             std::to_string(requests[i].u) + "-" +
             std::to_string(requests[i].v);
    }
  }
  return "";
}

// An updatable loopback daemon over `index`, its cache on, with one
// client for edit batches and one raw connection that pipelines queries.
struct Served {
  explicit Served(QbsIndex& index)
      : daemon(index, [] {
          server::ServerOptions options;
          options.allow_updates = true;
          return options;
        }()) {}

  // "" once the daemon listens and both connections are up.
  std::string Start() {
    std::string error;
    if (!daemon.Start(&error) ||
        !client.Connect("127.0.0.1", daemon.port())) {
      return "cannot start or connect: " + error + client.last_error();
    }
    sock = server::Socket::ConnectTcp("127.0.0.1", daemon.port(), &error);
    return sock.valid() ? "" : "cannot connect: " + error;
  }

  // Asks every request of `asked`, a chunk of frames at a time; "" when
  // each answer is the oracle's and, with `want_hits`, a cache hit.
  // `missed`, if given, collects the requests answered without a hit.
  std::string Check(const std::vector<Asked>& asked, bool want_hits,
                    std::vector<Asked>* missed = nullptr) {
    constexpr size_t kChunk = 64;
    constexpr int32_t kTimeoutMs = 10000;
    std::vector<uint8_t> buf(1 << 16);
    for (size_t begin = 0; begin < asked.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, asked.size());
      std::vector<uint8_t> wire;
      for (size_t i = begin; i < end; ++i) {
        server::AppendFrame(&wire, server::FrameType::kQueryRequest,
                            server::EncodeQueryRequest(asked[i].request));
      }
      if (sock.SendAll(wire, kTimeoutMs) != server::IoStatus::kOk) {
        return "query send failed";
      }
      for (size_t i = begin; i < end;) {
        server::Frame frame;
        const server::FrameReader::Status status = reader.Next(&frame);
        if (status == server::FrameReader::Status::kNeedMore) {
          size_t n = 0;
          if (sock.RecvSome(buf.data(), buf.size(), &n, kTimeoutMs) !=
              server::IoStatus::kOk) {
            return "query receive failed";
          }
          reader.Feed({buf.data(), n});
          continue;
        }
        QueryResponse got;
        if (status != server::FrameReader::Status::kFrame ||
            frame.type != server::FrameType::kQueryResponse ||
            !server::DecodeQueryResponse(frame.payload, &got)) {
          return "no query response for pair " +
                 std::to_string(asked[i].request.u) + "-" +
                 std::to_string(asked[i].request.v);
        }
        const std::string failure = CheckAnswer(asked[i], got, false);
        if (!failure.empty()) return failure;
        if (want_hits && !got.cache_hit) return "second ask missed the cache";
        if (missed != nullptr && !got.cache_hit) missed->push_back(asked[i]);
        ++i;
      }
    }
    return "";
  }

  // Asks each request, and again if it missed the cache: every answer
  // must be the oracle's, and the second a cache hit.
  std::string CheckAll(const std::vector<Asked>& asked) {
    std::vector<Asked> missed;
    const std::string failure = Check(asked, false, &missed);
    return failure.empty() ? Check(missed, true) : failure;
  }

  server::QueryServer daemon;
  server::QueryClient client;
  server::Socket sock;
  server::FrameReader reader;
};

// Serves `index` from a second loopback daemon under `plan` and asks
// kFaultedRequests of `asked`, cycling through it, on one faulted client
// and without the cache. "" when each outcome is allowed: the oracle's
// answer; a degraded one, uncached and without edges, whose bounds bracket
// the oracle's distance; kBusy or kDeadlineExceeded; or a transport error
// after which the client reconnects. A fault-free probe must then be
// exact, and under saturation some answer to a pair u != v must have
// degraded.
std::string CheckFaulted(QbsIndex& index, const FaultPlan& plan,
                         const std::vector<Asked>& asked) {
  constexpr size_t kFaultedRequests = 60;
  using Status = server::QueryClient::RpcStatus;
  if (asked.empty()) return "";
  server::ServerOptions options;
  options.max_inflight = plan.max_inflight;
  options.degrade_after_inflight = plan.degrade_after_inflight;
  options.read_timeout_ms = 1000;
  options.idle_timeout_ms = 10000;
  options.write_timeout_ms = 2000;
  // Connection ids count every connection the daemon accepted, so which
  // fault stream a late connection draws depends on how many reconnects
  // timing caused. The probe therefore connects with the faults off.
  std::atomic<bool> server_faults{true};
  options.fault_injector_factory = [&](uint64_t conn_id) {
    return server_faults.load()
               ? std::make_unique<server::FaultInjector>(plan.server, conn_id)
               : nullptr;
  };
  server::QueryServer daemon(index, options);
  std::string error;
  if (!daemon.Start(&error)) return "cannot start: " + error;
  server::ClientOptions timeouts;
  timeouts.read_timeout_ms = 3000;
  timeouts.write_timeout_ms = 3000;
  server::ClientOptions faulted = timeouts;
  server::FaultInjector client_faults(plan.client, /*endpoint_id=*/1);
  if (plan.client.HasIoFaults()) faulted.fault_injector = &client_faults;
  server::QueryClient client;
  if (!client.Connect("127.0.0.1", daemon.port(), faulted)) {
    return "cannot connect: " + client.last_error();
  }
  // A single sequential client never sees its own concurrency: under
  // saturation a hog loops slow uncached queries, holding the one slot.
  std::jthread hog;
  if (plan.degrade_after_inflight > 0) {
    hog = std::jthread([&](const std::stop_token& stop) {
      server::QueryClient hog_client;
      if (!hog_client.Connect("127.0.0.1", daemon.port(), timeouts)) return;
      QueryRequest slow = asked[0].request;
      slow.flags |= kQueryFlagNoCache;
      QueryResponse ignored;
      while (!stop.stop_requested() &&
             hog_client.Query(slow, &ignored) != Status::kTransportError) {
      }
    });
    // Wait, for at most 5 s, until the daemon counts the hog's query.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon.GetStats().admission_inflight < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  size_t degraded = 0;
  bool degradable = false;  // a pair u = u is never degraded
  for (size_t i = 0; i < kFaultedRequests; ++i) {
    const Asked& q = asked[i % asked.size()];
    degradable |= q.request.u != q.request.v;
    QueryRequest request = q.request;
    request.deadline_ms = plan.deadline_ms;
    request.flags |= kQueryFlagNoCache;
    QueryResponse got;
    std::string failure;
    switch (client.Query(request, &got)) {
      case Status::kOk:
        if (!got.degraded()) {
          failure = CheckAnswer(q, got, false);
          break;
        }
        ++degraded;
        if (got.degraded_lower > q.oracle.distance ||
            got.spg.distance < q.oracle.distance || !got.spg.edges.empty() ||
            got.cache_hit) {
          failure = "pair " + std::to_string(q.request.u) + "-" +
                    std::to_string(q.request.v) + " degraded to [" +
                    std::to_string(got.degraded_lower) + ", " +
                    std::to_string(got.spg.distance) + "] around d=" +
                    std::to_string(q.oracle.distance);
        }
        break;
      case Status::kBusy:
      case Status::kDeadlineExceeded:
        break;
      case Status::kRemoteError:
        failure = "remote error: " + client.last_error();
        break;
      case Status::kTransportError:
        if (!client.Reconnect()) failure = "reconnect: " + client.last_error();
        break;
    }
    if (!failure.empty()) return failure;
  }
  if (hog.joinable()) {
    hog.request_stop();
    hog.join();
  }
  if (!client.connected() && !client.Reconnect()) {
    return "reconnect: " + client.last_error();
  }
  server_faults.store(false);
  server::QueryClient probe;
  QueryResponse after;
  if (!probe.Connect("127.0.0.1", daemon.port(), timeouts) ||
      probe.Query(asked[0].request, &after) != Status::kOk) {
    return "probe: " + probe.last_error();
  }
  if (const std::string failure = CheckAnswer(asked[0], after, false);
      !failure.empty()) {
    return "probe: " + failure;
  }
  if (plan.degrade_after_inflight > 0 && degradable &&
      (degraded == 0 || daemon.GetStats().degraded == 0)) {
    return "the saturated daemon degraded no answer";
  }
  return "";
}

// Runs every state of `c`; "" when every check passes, else the first
// failure, prefixed by its state.
std::string RunCase(const Case& c) {
  Graph g = FamilyGraph(c.family, c.seed);
  const VertexId n = g.NumVertices();
  QbsOptions options;
  options.num_landmarks = c.num_landmarks;
  options.num_threads = c.threads;
  QbsIndex index = QbsIndex::BuildWithLandmarks(g, Landmarks(g, c), options);
  index.EnableUpdates(&g);
  const std::vector<Pair> pairs = c.all_pairs ? AllPairs(n) : c.pairs;
  const std::vector<Edge> initial = g.EdgeList();
  std::set<Edge> model(initial.begin(), initial.end());
  Graph want = Graph::FromEdges(n, initial);
  std::vector<Asked> asked = Requests(pairs, Oracles(want, pairs));
  std::string failure = CheckState(want, index, options, asked);
  if (!failure.empty()) return "build: " + failure;
  Served served(index);
  failure = served.Start();
  if (failure.empty()) failure = served.Check(asked, false);
  if (!failure.empty()) return "build served: " + failure;
  // The daemon's cache holds an answer to each request of the build; each
  // carries the oracle it was last checked against.
  std::vector<Asked> cached = asked;
  for (size_t b = 0; b < c.batches.size(); ++b) {
    const std::string state = "batch " + std::to_string(b) + ": ";
    GraphDelta delta;
    for (const EdgeUpdate& e : c.batches[b]) delta.Add(e);
    UpdateStats stats;
    if (served.client.Update(delta, &stats) !=
        server::QueryClient::RpcStatus::kOk) {
      return state + "update failed: " + served.client.last_error();
    }
    if (stats.AppliedTotal() > delta.size() || stats.rebuilt_columns != 0 ||
        stats.repaired_columns > index.landmarks().size()) {
      return state + "update stats out of range";
    }
    ApplyToModel(c.batches[b], n, &model);
    want = Graph::FromEdges(n, {model.begin(), model.end()});
    const std::vector<ShortestPathGraph> oracles = Oracles(want, pairs);
    asked = Requests(pairs, oracles);
    // An answer cached before the batch is still right if the answer the
    // oracle prescribes for it did not move; asking the others checks
    // that the batch erased them. The final state asks everything. The
    // daemon answers while the index is checked directly: both only read.
    std::vector<Asked> moved;
    for (Asked& q : cached) {
      const QueryResponse before = Prescribed(q);
      q.oracle = oracles[q.pair];
      if (!SameAnswer(before, Prescribed(q))) moved.push_back(q);
    }
    std::string served_failure;
    std::thread ask([&] { served_failure = served.Check(moved, false); });
    failure = CheckState(want, index, options, asked);
    ask.join();
    if (!failure.empty()) return state + failure;
    if (!served_failure.empty()) return state + "served: " + served_failure;
  }
  failure = served.CheckAll(asked);
  if (!failure.empty()) return "served: " + failure;
  if (c.fault != 0) failure = CheckFaulted(index, kFaultPlans[c.fault], asked);
  if (!failure.empty()) return "faulted: " + failure;
  const std::string path = ::testing::TempDir() + "/oracle_driver_" +
                           std::to_string(getpid()) + ".qbs";
  const bool saved = index.Save(path);
  std::optional<QbsIndex> loaded = QbsIndex::LoadFromFile(g, path, options);
  std::remove(path.c_str());
  if (!saved || !loaded.has_value()) return "Save or LoadFromFile failed";
  failure = CheckState(want, *loaded, options, asked);
  return failure.empty() ? "" : "loaded: " + failure;
}

using Check = std::function<std::string(const Case&)>;

// Removes elements of *items in halving chunks down to one at a time,
// keeping each removal after which `fails` still holds.
template <typename T>
void ShrinkList(std::vector<T>* items, const std::function<bool()>& fails) {
  for (size_t chunk = std::max<size_t>(items->size() / 2, 1);; chunk /= 2) {
    for (size_t i = 0; i < items->size();) {
      const size_t end = std::min(i + chunk, items->size());
      const std::vector<T> removed(items->begin() + i, items->begin() + end);
      items->erase(items->begin() + i, items->begin() + end);
      if (fails()) continue;
      items->insert(items->begin() + i, removed.begin(), removed.end());
      i = end;
    }
    if (chunk <= 1) return;
  }
}

// The smallest case found that `check` still fails: batches go first, then
// edits, then pairs.
Case Shrink(Case c, const Check& check) {
  const std::function<bool()> fails = [&] { return !check(c).empty(); };
  ShrinkList(&c.batches, fails);
  for (Batch& batch : c.batches) ShrinkList(&batch, fails);
  ShrinkList(&c.batches, fails);  // batches the edit pass emptied
  if (c.all_pairs) {
    c.pairs = AllPairs(FamilyGraph(c.family, c.seed).NumVertices());
    c.all_pairs = false;
  }
  ShrinkList(&c.pairs, fails);
  return c;
}

// Prints `c`'s line, runs it and, on a failure, fails the test with the
// shrunk case's line.
bool RunAndReport(const Case& c) {
  std::printf("[oracle] %s\n", Line(c).c_str());
  std::fflush(stdout);
  const std::string failure = RunCase(c);
  if (failure.empty()) return true;
  const Case shrunk = Shrink(c, RunCase);
  std::printf("[oracle] replay: %s\n", Line(shrunk).c_str());
  ADD_FAILURE() << failure << "\nshrunk: " << RunCase(shrunk)
                << "\nreplay: " << Line(shrunk);
  return false;
}

// A comma-separated list of whole decimal u64 seeds; nullopt, with the
// offending token named in *error, otherwise.
std::optional<std::vector<uint64_t>> ParseSeedList(std::string_view list,
                                                   std::string* error) {
  std::vector<uint64_t> seeds;
  for (const std::string_view token : Split(list, ',')) {
    if (!ParseU64(token, &seeds.emplace_back())) {
      *error = "QBS_DYNAMIC_SEEDS: '" + std::string(token) +
               "' is not a decimal seed";
      return std::nullopt;
    }
  }
  return seeds;
}

TEST(OracleDriverTest, EveryStateMatchesTheOracle) {
  for (const char* line : kRegressions) {
    std::string error;
    const std::optional<Case> c = ParseCase(line, &error);
    ASSERT_TRUE(c.has_value()) << error << " in " << line;
    if (!RunAndReport(*c)) return;
  }
  std::vector<uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8,
                              9, 10, 11, 12, 13, 14, 15, 16};
  if (const char* env = std::getenv("QBS_DYNAMIC_SEEDS")) {
    std::string error;
    const auto parsed = ParseSeedList(env, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    seeds = *parsed;
  }
  for (const uint64_t seed : seeds) {
    for (const Case& c : DrawCases(seed)) {
      if (!RunAndReport(c)) return;
    }
  }
}

TEST(OracleDriverTest, DefaultSeedsDrawTheCoverageFloor) {
  std::set<std::pair<int, size_t>> families_and_shapes;
  std::set<uint32_t> sizes;
  std::set<std::pair<bool, size_t>> rules_and_threads;
  std::set<size_t> faults;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const std::vector<Case> cases = DrawCases(seed);
    for (size_t shape = 0; shape < cases.size(); ++shape) {
      const Case& c = cases[shape];
      families_and_shapes.emplace(c.family, shape);
      sizes.insert(c.num_landmarks);
      rules_and_threads.emplace(c.random_landmarks, c.threads);
      faults.insert(c.fault);
      std::string error;
      EXPECT_EQ(ParseCase(Line(c), &error), c) << error << " in " << Line(c);
    }
  }
  // Every family in the mixed and the hot shape; the deep one in churn.
  EXPECT_EQ(families_and_shapes.size(), 2 * kNumFamilies + 1u);
  EXPECT_TRUE(families_and_shapes.contains({kDeep, 2}));
  EXPECT_EQ(sizes, (std::set<uint32_t>{0, 1, 2, 8, 20, 50, kAllLandmarks}));
  EXPECT_EQ(rules_and_threads.size(), 4u);
  // Every fault plan, and fault-free cases too.
  EXPECT_EQ(faults.size(), kNumFaultPlans);
}

// A line without fault= is fault-free; an unknown plan is a parse error.
// (DefaultSeedsDrawTheCoverageFloor round-trips every plan.)
TEST(OracleDriverTest, FaultFieldIsOptionalAndNamesAPlan) {
  std::string error;
  for (const char* line : kRegressions) {
    const std::optional<Case> c = ParseCase(line, &error);
    ASSERT_TRUE(c.has_value()) << error << " in " << line;
    EXPECT_EQ(c->fault, 0u) << line;
  }
  EXPECT_EQ(ParseCase("family=ba seed=1 rule=degree R=2 threads=1 "
                      "fault=client-hangs edits=\"\" pairs=\"\"",
                      &error),
            std::nullopt);
  EXPECT_NE(error.find("unknown fault plan 'client-hangs'"), std::string::npos)
      << error;
}

TEST(OracleDriverTest, ShrinksToTheFailingEditAndPair) {
  Case c;
  for (VertexId i = 0; i < 30; ++i) {
    if (i % 10 == 0) c.batches.emplace_back();
    c.batches.back().push_back(
        {i % 2 == 0 ? EdgeOp::kInsert : EdgeOp::kDelete, i, i + 5});
  }
  c.batches[1][4] = {EdgeOp::kInsert, 3, 9};
  for (VertexId i = 0; i < 50; ++i) c.pairs.emplace_back(i, 50 + i);
  c.pairs[17] = {3, 40};
  const Check planted = [](const Case& k) -> std::string {
    bool edit = false;
    for (const Batch& batch : k.batches) {
      edit |= std::ranges::count(batch, EdgeUpdate{EdgeOp::kInsert, 3, 9}) > 0;
    }
    return edit && std::ranges::count(k.pairs, Pair{3, 40}) > 0 ? "planted"
                                                                : "";
  };
  ASSERT_EQ(planted(c), "planted");
  const Case shrunk = Shrink(c, planted);
  const std::string line = Line(shrunk);
  EXPECT_NE(line.find(" edits=\"i 3 9\" pairs=\"3-40\""), std::string::npos)
      << line;
  std::string error;
  EXPECT_EQ(ParseCase(line, &error), shrunk) << error;
}

TEST(OracleDriverTest, SeedListsAreWholeDecimalTokens) {
  std::string error;
  EXPECT_EQ(ParseSeedList("1,7,42,20121", &error),
            (std::vector<uint64_t>{1, 7, 42, 20121}));
  EXPECT_EQ(ParseSeedList("1,,2", &error), std::nullopt);
  EXPECT_NE(error.find("''"), std::string::npos) << error;
  EXPECT_EQ(ParseSeedList("3,7x", &error), std::nullopt);
  EXPECT_NE(error.find("'7x'"), std::string::npos) << error;
}

}  // namespace
}  // namespace qbs
