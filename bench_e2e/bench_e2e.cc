// bench_e2e — the repository's end-to-end benchmark of record.
//
// Runs one or all of four seeded workloads against the library and an
// in-process `qbs serve` daemon over loopback, prints every metric as
//
//   metric <workload> <name> <value> <unit>
//
// checks sampled answers against the BFS oracle (SpgByDoubleBfs), and exits
// non-zero on any wrong answer. Every layer is timed from outside, around
// calls into its public functions; README.md records why each workload
// exists, which metrics each layer should move, and how the regression
// bounds in BENCHMARK.json were derived.
//
//   bench_e2e --workload=<name|all> --seed=<n> [--seconds=<s>]
//             [--trace=<file>] [--smoke] [--work-dir=<dir>]
//
// Load shape is fixed here, not configurable: one process, one client
// thread, at most four worker threads. On first use each workload's graph
// is generated and written as a QBSGRF01 file under the work directory
// together with its index file; that preparation is not timed. With
// --trace the workload first runs untraced, then its request (and edit)
// stream is replayed on one thread with a span around every layer call;
// the per-layer metrics come from that replay and the spans are written to
// <file> as JSON.
//
// The gated cost figures are CPU time in units of a fixed reference task
// that runs beside the measured work (ReferenceTask): on the shared host
// this was sized for, outside load changes the CPU time of the same work
// by up to 40% for minutes at a time, and the reference changes with it.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "core/label_scan.h"
#include "core/qbs_index.h"
#include "core/sketch.h"
#include "graph/dataset_io.h"
#include "graph/graph_delta.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "util/rng.h"
#include "workload/dataset_registry.h"
#include "workload/synthetic_workload.h"

#ifndef QBS_BENCH_BUILD_TYPE
#define QBS_BENCH_BUILD_TYPE "unknown"
#endif

namespace qbs::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed load shape ------------------------------------------------------

constexpr uint32_t kLandmarks = 20;
// QueryBatch and ApplyUpdates threads; also the daemon's admission limit
// (ServerOptions::max_inflight = 0 resolves to the 4 cores). The measured
// build runs on one thread: its CPU time is then free of work-stealing
// imbalance, which follows the host's scheduling.
constexpr size_t kThreads = 4;
constexpr size_t kBatchSize = 256;
// churn_mixed sends one edit after every kReadsPerEdit reads, so the mix
// is fixed however fast the host runs. An edit costs about 0.4 CPU-seconds
// and 10,000 reads about as much again, cache refills included.
constexpr size_t kReadsPerEdit = 10000;
// Edits the traced replay applies to its own index, on every workload.
constexpr size_t kReplayEdits = 6;
constexpr double kTail = 0.99;
constexpr uint64_t kUniverseSeed = 42;
constexpr uint64_t kReferenceSeed = 0x9e3779b97f4a7c15ULL;
// The reference task's wire half: round trips of a request-sized message
// and a reply the size of a typical answer. 1,000 of them take about 25 ms
// of CPU: about half the BFS half on TW, three times it on DO.
constexpr size_t kReferenceRoundTrips = 1000;
constexpr size_t kEchoRequestBytes = 32;
constexpr size_t kEchoReplyBytes = 1024;

enum class Kind { kServe, kBatch, kChurn };

struct Workload {
  const char* name;
  Kind kind;
  const char* dataset;  // Table 1 stand-in (workload/dataset_registry.h)
  double scale;
  double smoke_scale;
  size_t distinct_pairs;
  double zipf_s;
  // Calls per measured round: 0.1-0.3 CPU-seconds of work (churn: one
  // edit and the reads between edits, about 0.8), so that the reference
  // task before each round tracks the host's speed closely. A call is one
  // request, one QueryBatch, or (churn) one read or edit.
  size_t round_calls;
  // The reference task's CPU time on the graph when the host is idle
  // (Intel Xeon, 4 vCPUs): the scale that turns a cost in reference
  // tasks back into seconds. Any fixed value would do; this one makes
  // the figures read like the idle host's.
  double idle_ref_s;
};

// Why each exists — and what each predicts should NOT move — is in
// README.md. churn_mixed draws from 10,000 pairs: each edit clears the
// result cache, and the refills are then a share of its reads large enough
// for search cost to show beside repair cost.
constexpr Workload kWorkloads[] = {
    {"serve_hot", Kind::kServe, "TW", 4.0, 1.0 / 16, 1000, 0.99, 8192, 0.048},
    {"serve_cold", Kind::kServe, "TW", 4.0, 1.0 / 16, 1000000, 0.0, 1024,
     0.048},
    {"batch_far", Kind::kBatch, "DO", 16.0, 0.25, 1000000, 0.0, 16, 0.026},
    {"churn_mixed", Kind::kChurn, "DO", 16.0, 0.25, 10000, 0.99,
     kReadsPerEdit + 1, 0.026},
};

// Sizes of the repeated and replayed phases; --smoke shrinks them.
struct Sizes {
  size_t stream_length;
  size_t max_distinct_pairs;
  size_t setup_reps;
  size_t build_reps;
  size_t checks_per_stream;  // oracle-checked answers per loop
  size_t replay_requests;
  size_t bibfs_pairs;
  size_t parallel_batches;
  size_t max_round_calls;
  double warmup_seconds;
  double default_seconds;
};

Sizes SizesFor(bool smoke) {
  if (smoke) {
    return {.stream_length = 4096,
            .max_distinct_pairs = 20000,
            .setup_reps = 2,
            .build_reps = 2,
            .checks_per_stream = 6,
            .replay_requests = 256,
            .bibfs_pairs = 64,
            .parallel_batches = 2,
            .max_round_calls = 64,
            .warmup_seconds = 0.1,
            .default_seconds = 0.5};
  }
  return {.stream_length = 1u << 19,
          .max_distinct_pairs = 1000000,
          .setup_reps = 7,
          .build_reps = 9,
          .checks_per_stream = 16,
          .replay_requests = 8192,
          .bibfs_pairs = 1000,
          .parallel_batches = 8,
          .max_round_calls = SIZE_MAX,
          .warmup_seconds = 2.0,
          .default_seconds = 12.0};
}

struct Flags {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 0.0;  // 0 = Sizes::default_seconds
  std::string trace_path;
  bool smoke = false;
  std::string work_dir;
};

void Require(bool ok, const std::string& message) {
  if (ok) return;
  std::fprintf(stderr, "bench_e2e: error: %s\n", message.c_str());
  std::exit(2);
}

uint64_t Ns(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

uint64_t NowNs() { return Ns(Clock::now()); }

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of raw samples (0 for no samples).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// CPU seconds used so far by every thread of this process, user and
/// system time both. Unlike wall time it leaves out the time a thread
/// waits for a core the host gave to someone else.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The search half of the reference task: one breadth-first search over a
/// uniform random graph with the workload graph's vertex and edge counts.
class ReferenceBfs {
 public:
  ReferenceBfs(VertexId vertices, uint64_t edges)
      : offsets_(vertices + size_t{1}, 0),
        adjacency_(2 * edges),
        depth_(vertices),
        queue_(vertices) {
    uint64_t state = kReferenceSeed;
    const auto next = [&state, vertices] {  // splitmix64
      uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<VertexId>((z ^ (z >> 31)) % vertices);
    };
    std::vector<std::pair<VertexId, VertexId>> pairs(edges);
    for (auto& [a, b] : pairs) {
      a = next();
      b = next();
      ++offsets_[a + 1];
      ++offsets_[b + 1];
    }
    for (size_t v = 0; v < vertices; ++v) offsets_[v + 1] += offsets_[v];
    std::vector<uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const auto& [a, b] : pairs) {
      adjacency_[fill[a]++] = b;
      adjacency_[fill[b]++] = a;
    }
    // The highest-degree vertex lies in the giant component, so every
    // search does the same, full amount of work.
    for (VertexId v = 1; v < vertices; ++v) {
      if (offsets_[v + 1] - offsets_[v] >
          offsets_[source_ + 1] - offsets_[source_]) {
        source_ = v;
      }
    }
  }

  /// One search from the fixed source.
  void Run() {
    std::fill(depth_.begin(), depth_.end(), kUnseen);
    size_t head = 0;
    size_t tail = 0;
    queue_[tail++] = source_;
    depth_[source_] = 0;
    while (head < tail) {
      const VertexId u = queue_[head++];
      for (uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const VertexId w = adjacency_[e];
        if (depth_[w] == kUnseen) {
          depth_[w] = depth_[u] + 1;
          queue_[tail++] = w;
        }
      }
    }
    reached_ = tail;
  }

  size_t reached() const { return reached_; }

  uint64_t SizeBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           (adjacency_.size() + depth_.size() + queue_.size()) *
               sizeof(VertexId);
  }

 private:
  static constexpr VertexId kUnseen = ~VertexId{0};

  std::vector<uint64_t> offsets_;
  std::vector<VertexId> adjacency_;
  std::vector<VertexId> depth_;
  std::vector<VertexId> queue_;
  VertexId source_ = 0;
  size_t reached_ = 0;
};

/// The wire half of the reference task: a loopback TCP connection whose
/// far end, a thread of its own, answers every kEchoRequestBytes message
/// with kEchoReplyBytes. It makes its own socket calls rather than the
/// daemon's, which a change to the repository could speed up.
class LoopbackEcho {
 public:
  LoopbackEcho() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const auto* sa = reinterpret_cast<sockaddr*>(&addr);
    const bool listening =
        listener >= 0 && ::bind(listener, sa, sizeof(addr)) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    client_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const bool connected =
        listening && client_ >= 0 && ::connect(client_, sa, sizeof(addr)) == 0;
    server_ = connected ? ::accept(listener, nullptr, nullptr) : -1;
    if (listener >= 0) ::close(listener);
    Require(server_ >= 0, "cannot set up the reference loopback connection");
    const int one = 1;
    for (const int fd : {client_, server_}) {
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    echo_ = std::thread([this] {
      std::vector<char> in(kEchoRequestBytes);
      const std::vector<char> out(kEchoReplyBytes, 'e');
      while (RecvAll(server_, in.data(), in.size()) &&
             SendAll(server_, out.data(), out.size())) {
      }
    });
  }

  ~LoopbackEcho() {
    ::shutdown(client_, SHUT_RDWR);  // the echo thread sees end of stream
    echo_.join();
    ::close(client_);
    ::close(server_);
  }

  LoopbackEcho(const LoopbackEcho&) = delete;
  LoopbackEcho& operator=(const LoopbackEcho&) = delete;

  void RoundTrips(size_t n) {
    std::vector<char> request(kEchoRequestBytes, 'r');
    std::vector<char> reply(kEchoReplyBytes);
    for (size_t i = 0; i < n; ++i) {
      Require(SendAll(client_, request.data(), request.size()) &&
                  RecvAll(client_, reply.data(), reply.size()),
              "reference loopback connection broke");
    }
  }

 private:
  // Each moves exactly `n` bytes; false on error or end of stream.
  static bool SendAll(int fd, const char* buf, size_t n) {
    while (n > 0) {
      const ssize_t k = ::send(fd, buf, n, MSG_NOSIGNAL);
      if (k <= 0) return false;
      buf += k;
      n -= static_cast<size_t>(k);
    }
    return true;
  }
  static bool RecvAll(int fd, char* buf, size_t n) {
    while (n > 0) {
      const ssize_t k = ::recv(fd, buf, n, 0);
      if (k <= 0) return false;
      buf += k;
      n -= static_cast<size_t>(k);
    }
    return true;
  }

  int client_ = -1;
  int server_ = -1;
  std::thread echo_;
};

/// The unit of the benchmark's gated cost figures: a fixed task of one
/// ReferenceBfs search and kReferenceRoundTrips LoopbackEcho round trips,
/// written in this file's own code so that no change to the repository can
/// make it faster or slower. Each cost is the CPU time of some work divided
/// by the CPU time of reference tasks run right beside it.
///
/// On the shared 4-vCPU host the benchmark was sized for, outside load
/// changed the CPU time of the same work by up to 40% for minutes at a
/// time, while a register-only loop stayed within 10%: the swings come
/// from other tenants' use of the shared cache, memory and kernel paths,
/// not from the clock rate. Over minutes of such swings, cached requests
/// over loopback followed the echo closely, uncached queries the search,
/// and the single-thread build the sum of both. In 15 s windows the cost
/// of each in reference tasks had an interquartile spread of 1-8%, where
/// its CPU time spread by 5-32%.
class ReferenceTask {
 public:
  ReferenceTask(VertexId vertices, uint64_t edges) : bfs_(vertices, edges) {}

  /// CPU seconds of one reference task.
  double Run() {
    const double t0 = ProcessCpuSeconds();
    bfs_.Run();
    echo_.RoundTrips(kReferenceRoundTrips);
    return ProcessCpuSeconds() - t0;
  }

  const ReferenceBfs& bfs() const { return bfs_; }

 private:
  ReferenceBfs bfs_;
  LoopbackEcho echo_;
};

/// CPU seconds of each run of some repeated work, and its cost in
/// reference tasks.
struct RefSamples {
  std::vector<double> cpu_s;
  double refs = 0;
};

/// Runs `work`, which returns the CPU seconds it measured, `reps` times
/// with two reference tasks before, between and after the runs. Each run
/// is paired with the mean of the four reference tasks around it, and the
/// cost is the sum of the runs over the sum of their pairs: a single run
/// of a second or less still moves by several percent against its
/// neighbours, and over 20 runs of 7-11 repetitions the ratio of the sums
/// spread less than the median of the per-run ratios.
template <typename Work>
RefSamples InReferenceTasks(ReferenceTask& ref, size_t reps, Work work) {
  RefSamples s;
  double paired_s = 0;
  double before_s = ref.Run() + ref.Run();
  for (size_t rep = 0; rep < reps; ++rep) {
    const double cpu_s = work();
    const double after_s = ref.Run() + ref.Run();
    s.cpu_s.push_back(cpu_s);
    paired_s += (before_s + after_s) / 4;
    before_s = after_s;
  }
  double total_s = 0;
  for (const double cpu_s : s.cpu_s) total_s += cpu_s;
  s.refs = Ratio(total_s, paired_s);
  return s;
}

double ReadRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // KiB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

class Report {
 public:
  explicit Report(const char* workload) : workload_(workload) {}

  void Metric(const char* name, double value, const char* unit) const {
    std::printf("metric %s %s %.10g %s\n", workload_, name, value, unit);
  }

  /// One `check` line; returns `passed == total`.
  bool Check(const char* what, uint64_t passed, uint64_t total) const {
    const bool ok = passed == total;
    std::printf("check %s %s %llu/%llu %s\n", workload_, what,
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(total), ok ? "ok" : "FAIL");
    return ok;
  }

 private:
  const char* workload_;
};

// ---- Inputs ----------------------------------------------------------------

QbsOptions IndexOptions() {
  QbsOptions options;
  options.num_landmarks = kLandmarks;
  options.num_threads = kThreads;
  return options;
}

struct Inputs {
  std::string graph_path;
  std::string index_path;
  VertexId vertices = 0;
  uint64_t edges = 0;
};

void RenameInto(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  Require(!ec, "cannot move " + tmp + " into place: " + ec.message());
}

/// Generates (once) the workload's graph and index files. Untimed.
Inputs PrepareInputs(const Workload& w, double scale, const std::string& dir) {
  char tag[32];
  std::snprintf(tag, sizeof(tag), "%g", scale);
  const std::string base = dir + "/" + w.dataset + "-x" + tag;
  Inputs in{base + ".qbsgrf", base + ".qbs"};

  std::optional<Graph> g;
  if (std::filesystem::exists(in.graph_path)) {
    g = LoadGraphCache(in.graph_path);
  }
  if (!g.has_value()) {
    g = MakeDataset(DatasetByAbbrev(w.dataset), scale);
    const std::string tmp = in.graph_path + ".tmp";
    Require(SaveGraphCache(*g, DatasetCacheInfo{}, tmp),
            "cannot write " + tmp);
    RenameInto(tmp, in.graph_path);
  }
  in.vertices = g->NumVertices();
  in.edges = g->NumEdges();

  if (!std::filesystem::exists(in.index_path) ||
      !QbsIndex::LoadFromFile(*g, in.index_path, IndexOptions())) {
    const std::string tmp = in.index_path + ".tmp";
    Require(QbsIndex::Build(*g, IndexOptions()).Save(tmp),
            "cannot write " + tmp);
    RenameInto(tmp, in.index_path);
  }
  return in;
}

/// One daemon restart's worth of state. The server must stop before the
/// index and graph it reads go away: the destructor runs members in
/// reverse order, and Reset() does the same explicitly.
struct Daemon {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<QbsIndex> index;
  std::unique_ptr<server::QueryServer> server;  // null for batch_far

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void Reset() {
    server.reset();
    index.reset();
    graph.reset();
  }
};

struct SetupSample {
  double total_s = 0;
  double graph_s = 0;
  double index_s = 0;  // LoadFromFile minus its Δ rebuild
};

/// Loads the graph and index files into the empty `d` and, for `kind`s
/// that serve, starts the daemon — a restart from files on disk. The Δ
/// rebuild and churn_mixed's EnableUpdates run on one thread, so that the
/// restart's wall time does not follow how the host schedules a pool of
/// workers.
void StartDaemon(Kind kind, const Inputs& in, SetupSample* sample,
                 Daemon* d) {
  QbsOptions load_options = IndexOptions();
  load_options.num_threads = 1;
  const auto t0 = Clock::now();
  std::optional<Graph> g = LoadGraphCache(in.graph_path);
  Require(g.has_value(), "cannot load " + in.graph_path);
  d->graph = std::make_unique<Graph>(std::move(*g));
  const auto t1 = Clock::now();
  std::optional<QbsIndex> index =
      QbsIndex::LoadFromFile(*d->graph, in.index_path, load_options);
  Require(index.has_value(), "cannot load " + in.index_path);
  d->index = std::make_unique<QbsIndex>(std::move(*index));
  const auto t2 = Clock::now();
  if (kind == Kind::kChurn) d->index->EnableUpdates(d->graph.get(), 1);
  if (kind != Kind::kBatch) {
    server::ServerOptions options;  // defaults: 64 MiB cache, 4 in flight
    options.port = 0;
    options.allow_updates = kind == Kind::kChurn;
    d->server = std::make_unique<server::QueryServer>(*d->index, options);
    std::string error;
    Require(d->server->Start(&error), "server start failed: " + error);
  }
  const auto t3 = Clock::now();
  if (sample != nullptr) {
    sample->total_s = Seconds(t0, t3);
    sample->graph_s = Seconds(t0, t1);
    sample->index_s = Seconds(t1, t2) - d->index->timings().delta_seconds;
  }
}

/// The request stream: Zipf(w.zipf_s) draws over the workload's pair
/// universe. The universe is part of the workload, like its graph — drawn
/// from a fixed seed — and --seed draws the sequence. GenerateWorkload
/// derives both from one seed, which would let the seed pick which few
/// pairs carry a hot workload's traffic: their answer sizes differ by
/// several times, and run-to-run spread would follow.
std::vector<QueryRequest> MakeStream(const Graph& g, const Workload& w,
                                     const Sizes& sizes, uint64_t seed) {
  WorkloadOptions options;
  options.num_distinct_pairs =
      std::min(w.distinct_pairs, sizes.max_distinct_pairs);
  options.seed = kUniverseSeed;
  const std::vector<QueryPair> universe = WorkloadUniverse(g, options);
  std::vector<double> cdf(universe.size());
  double total = 0.0;
  for (size_t r = 0; r < universe.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
    cdf[r] = total;
  }
  Rng rng(seed);
  std::vector<QueryRequest> stream;
  stream.reserve(sizes.stream_length);
  for (size_t i = 0; i < sizes.stream_length; ++i) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.UniformReal() * total) -
        cdf.begin());
    const QueryPair& p = universe[std::min(rank, universe.size() - 1)];
    stream.emplace_back(p.u, p.v);
  }
  return stream;
}

uint64_t StreamDigest(const std::vector<QueryRequest>& stream) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const QueryRequest& r : stream) {
    for (const uint64_t x : {uint64_t{r.u}, uint64_t{r.v}}) {
      h ^= x;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// `count` single-edge edits alternating the insert of a uniform non-edge
/// with the delete of a uniform existing edge, valid against the graph as
/// it evolves under the earlier edits.
std::vector<GraphDelta> MakeEdits(const Graph& g, size_t count,
                                  uint64_t seed) {
  Rng rng(seed ^ 0x5eed0fed17ULL);
  const auto key = [](VertexId a, VertexId b) {
    return (uint64_t{std::min(a, b)} << 32) | std::max(a, b);
  };
  std::unordered_set<uint64_t> inserted;
  std::unordered_set<uint64_t> deleted;
  const auto present = [&](VertexId a, VertexId b) {
    const uint64_t k = key(a, b);
    return inserted.count(k) != 0 ||
           (deleted.count(k) == 0 && g.HasEdge(a, b));
  };
  const std::span<const uint64_t> offsets = g.RawOffsets();
  const std::span<const VertexId> adjacency = g.RawAdjacency();
  std::vector<GraphDelta> edits(count);
  for (size_t j = 0; j < count; ++j) {
    VertexId a = 0;
    VertexId b = 0;
    if (j % 2 == 0) {
      do {
        a = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
        b = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
      } while (a == b || present(a, b));
      inserted.insert(key(a, b));
      edits[j].Insert(a, b);
    } else {
      do {
        const uint64_t slot = rng.UniformInt(adjacency.size());
        a = static_cast<VertexId>(
            std::upper_bound(offsets.begin(), offsets.end(), slot) -
            offsets.begin() - 1);
        b = adjacency[slot];
      } while (!present(a, b));
      deleted.insert(key(a, b));
      edits[j].Delete(a, b);
    }
  }
  return edits;
}

// ---- Measured phase --------------------------------------------------------

struct Window {
  Clock::time_point start;  // warm-up ends, measurement begins
  Clock::time_point end;
};

struct Answer {
  QueryRequest request;
  QueryResponse response;
};

/// One round of the measured phase: a reference task, then a fixed number
/// of calls back to back on the same thread.
struct Round {
  double ref_cpu_s = 0;   // the reference task
  double cpu_s = 0;       // the whole process over the round's calls
  double wall_s = 0;      // the round's calls, without the reference
  uint64_t requests = 0;  // answered OK
};

struct LoopStats {
  std::vector<Round> rounds;
  std::vector<double> latency_us;  // per call in the window, answered OK
  std::vector<double> edit_ms;     // churn: round trip per edit
  uint64_t attempted = 0;
  uint64_t ok = 0;
  size_t edits_sent = 0;  // as a prefix of the edit stream
  uint64_t edits_ok = 0;
  std::vector<Answer> kept;  // sampled for the oracle check
};

/// Keeps the first few answers (mostly misses) and then every 2048th
/// (mostly cache hits on hot workloads) for the oracle check.
bool ShouldKeep(size_t k, size_t kept, size_t budget) {
  return kept < budget && (k < budget / 2 || k % 2048 == 0);
}

/// The closed loop every workload runs on one client thread: `call(i,
/// round)` makes the i-th call (counting from 0 in each round; round is
/// null during warm-up) and returns false when the loop cannot go on.
/// Calls run untimed until the window opens, then in rounds until it
/// closes. A round that has begun always completes, so every round has
/// the same calls.
template <typename Call>
void RunRounds(const Window& window, size_t round_calls, ReferenceTask& ref,
               Call call, LoopStats* st) {
  while (Clock::now() < window.start) {
    if (!call(size_t{0}, nullptr)) return;
  }
  while (Clock::now() < window.end) {
    Round round;
    round.ref_cpu_s = ref.Run();
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    for (size_t i = 0; i < round_calls; ++i) {
      if (!call(i, &round)) return;
    }
    round.cpu_s = ProcessCpuSeconds() - cpu0;
    round.wall_s = Seconds(t0, Clock::now());
    st->rounds.push_back(round);
  }
}

/// Records one call made in the window.
void RecordCall(Clock::time_point t0, Clock::time_point t1,
                uint64_t requests, uint64_t ok_requests, Round* round,
                LoopStats* st) {
  st->attempted += requests;
  st->ok += ok_requests;
  round->requests += ok_requests;
  if (ok_requests > 0) {
    st->latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

/// One query over the wire; busy, deadline, degraded and error answers
/// count as failed. Returns false when the connection broke.
bool WireQuery(server::QueryClient& client, const QueryRequest& request,
               size_t k, size_t keep, Round* round, LoopStats* st) {
  QueryResponse response;
  const auto t0 = Clock::now();
  const auto status = client.Query(request, &response);
  const auto t1 = Clock::now();
  const bool ok =
      status == server::QueryClient::RpcStatus::kOk && !response.degraded();
  if (round != nullptr) RecordCall(t0, t1, 1, ok ? 1 : 0, round, st);
  if (ok && ShouldKeep(k, st->kept.size(), keep)) {
    st->kept.push_back({request, std::move(response)});
  }
  return status != server::QueryClient::RpcStatus::kTransportError;
}

/// serve_*: one connection to the daemon, one request at a time.
void ServeLoop(uint16_t port, const std::vector<QueryRequest>& stream,
               const Window& window, size_t round_calls, size_t keep,
               ReferenceTask& ref, LoopStats* st) {
  server::QueryClient client;
  if (!client.Connect("127.0.0.1", port)) {
    ++st->attempted;
    return;
  }
  size_t k = 0;
  RunRounds(
      window, round_calls, ref,
      [&](size_t, Round* round) {
        const QueryRequest& request = stream[k % stream.size()];
        return WireQuery(client, request, k++, keep, round, st);
      },
      st);
}

/// churn_mixed: reads on one connection, and after every round_calls - 1
/// reads one edit on a second. An edit counts as OK when the daemon
/// applied exactly one edge change. Warm-up sends reads only.
void ChurnLoop(uint16_t port, const std::vector<QueryRequest>& stream,
               const std::vector<GraphDelta>& edits, const Window& window,
               size_t round_calls, ReferenceTask& ref, LoopStats* st) {
  server::QueryClient reader;
  server::QueryClient writer;
  if (!reader.Connect("127.0.0.1", port) ||
      !writer.Connect("127.0.0.1", port)) {
    ++st->attempted;
    return;
  }
  size_t k = 0;
  RunRounds(
      window, round_calls, ref,
      [&](size_t i, Round* round) {
        if (round == nullptr || i + 1 < round_calls) {
          const QueryRequest& request = stream[k % stream.size()];
          return WireQuery(reader, request, k++, 0, round, st);
        }
        if (st->edits_sent == edits.size()) return false;
        UpdateStats applied;
        const auto t0 = Clock::now();
        const auto status = writer.Update(edits[st->edits_sent++], &applied);
        const auto t1 = Clock::now();
        const bool ok = status == server::QueryClient::RpcStatus::kOk &&
                        applied.AppliedTotal() == 1;
        st->attempted += 1;
        st->ok += ok ? 1 : 0;
        st->edits_ok += ok ? 1 : 0;
        round->requests += ok ? 1 : 0;
        st->edit_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        return status != server::QueryClient::RpcStatus::kTransportError;
      },
      st);
}

/// batch_far: the library path, one QueryBatch of kBatchSize requests at
/// a time on kThreads threads. Every request of a call sees the call's
/// wall time as its latency, so one latency sample is kept per call.
void BatchLoop(QbsIndex& index, const std::vector<QueryRequest>& stream,
               const Window& window, size_t round_calls, size_t keep,
               ReferenceTask& ref, LoopStats* st) {
  QbsIndex::BatchOptions options;
  options.num_threads = kThreads;
  std::vector<QueryRequest> batch(kBatchSize);
  size_t j = 0;
  RunRounds(
      window, round_calls, ref,
      [&](size_t, Round* round) {
        for (size_t i = 0; i < kBatchSize; ++i) {
          batch[i] = stream[(j * kBatchSize + i) % stream.size()];
        }
        const auto t0 = Clock::now();
        std::vector<QueryResponse> responses = index.QueryBatch(batch, options);
        const auto t1 = Clock::now();
        if (round != nullptr) {
          uint64_t ok = 0;
          for (const QueryResponse& r : responses) ok += r.degraded() ? 0 : 1;
          RecordCall(t0, t1, kBatchSize, ok, round, st);
        }
        if (ShouldKeep(j, st->kept.size(), keep)) {
          st->kept.push_back({batch[j % kBatchSize],
                              std::move(responses[j % kBatchSize])});
        }
        ++j;
        return true;
      },
      st);
}

/// The loop's figures. The gated one is request_refs: per round, the CPU
/// time per request answered over the CPU time of the round's reference
/// task, and the median over rounds. The rest are printed for inspection
/// only: raw CPU time follows the host's speed, and wall time follows it
/// and the scheduler too.
struct LoopSummary {
  double request_refs = 0;
  double request_cpu_us = 0;  // median over rounds
  double ref_cpu_ms = 0;      // median over rounds
  double throughput_qps = 0;  // requests over the rounds' wall time
  double p50_us = 0;          // per call, pooled over the window
  double p99_us = 0;
};

LoopSummary Summarize(const LoopStats& st) {
  LoopSummary s;
  std::vector<double> refs, cpu_us, ref_ms;
  double requests = 0;
  double wall_s = 0;
  for (const Round& r : st.rounds) {
    const double n = static_cast<double>(r.requests);
    refs.push_back(Ratio(r.cpu_s, n * r.ref_cpu_s));
    cpu_us.push_back(Ratio(r.cpu_s * 1e6, n));
    ref_ms.push_back(r.ref_cpu_s * 1e3);
    requests += n;
    wall_s += r.wall_s;
  }
  s.request_refs = Median(refs);
  s.request_cpu_us = Median(cpu_us);
  s.ref_cpu_ms = Median(ref_ms);
  s.throughput_qps = Ratio(requests, wall_s);
  s.p50_us = Quantile(st.latency_us, 0.5);
  s.p99_us = Quantile(st.latency_us, kTail);
  return s;
}

/// The daemon's counters over the measured window: the difference between
/// a GetStats() snapshot taken as the window opens and one taken after the
/// client loops end. `cache.bytes` is the cache's size at the end.
struct ServerWindow {
  server::ResultCache::Stats cache;
  uint64_t busy_rejections = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t degraded = 0;
};

ServerWindow WindowDelta(const server::QueryServer::StatsSnapshot& a,
                         const server::QueryServer::StatsSnapshot& b) {
  ServerWindow w;
  w.cache.hits = b.cache.hits - a.cache.hits;
  w.cache.misses = b.cache.misses - a.cache.misses;
  w.cache.evictions = b.cache.evictions - a.cache.evictions;
  w.cache.bytes = b.cache.bytes;
  w.busy_rejections = b.busy_rejections - a.busy_rejections;
  w.deadline_exceeded = b.deadline_exceeded - a.deadline_exceeded;
  w.degraded = b.degraded - a.degraded;
  return w;
}

/// Compares every kept answer with the BFS oracle on `g`.
uint64_t OracleMatches(const Graph& g, const std::vector<Answer>& kept) {
  uint64_t matches = 0;
  for (const Answer& a : kept) {
    if (a.response.spg == SpgByDoubleBfs(g, a.request.u, a.request.v) &&
        a.response.flags == 0) {
      ++matches;
    }
  }
  return matches;
}

// ---- Traced replay ---------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index into the span vector; -1 for a request root
  uint32_t request;
};

/// In-memory span store; written out as JSON when the run ends.
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  int32_t Open(const char* name, int32_t parent, uint32_t request,
               uint64_t now) {
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id, uint64_t now) {
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// The spans of one replayed request: a root, and one child per layer call.
/// Consecutive children share their boundary timestamp — one clock read
/// per boundary — and the root runs from the first boundary to the last,
/// so every call of the request path lands in some layer's span. Without
/// kSpans only the root is timed.
template <bool kSpans>
class RequestTrace {
 public:
  RequestTrace(Tracer* tracer, uint32_t request)
      : tracer_(tracer), request_(request) {
    if constexpr (!kSpans) start_ = NowNs();
  }

  /// Ends the current layer span, if any, and starts `layer`.
  void Enter(const char* layer) {
    if constexpr (kSpans) {
      const uint64_t now = NowNs();
      if (root_ < 0) root_ = tracer_->Open("request", -1, request_, now);
      if (child_ >= 0) tracer_->Close(child_, now);
      child_ = tracer_->Open(layer, root_, request_, now);
    }
  }

  /// Ends the request; returns the root's duration.
  uint64_t Finish() {
    const uint64_t now = NowNs();
    if constexpr (kSpans) {
      if (child_ >= 0) tracer_->Close(child_, now);
      tracer_->Close(root_, now);
      return now - tracer_->spans()[static_cast<size_t>(root_)].start_ns;
    }
    return now - start_;
  }

 private:
  Tracer* tracer_;
  uint32_t request_;
  int32_t root_ = -1;
  int32_t child_ = -1;
  uint64_t start_ = 0;
};

struct ReplayOutcome {
  bool hit = false;
  bool ok = false;  // the decoded answer equals the executed/cached one
  uint64_t root_ns = 0;
  uint32_t response_bytes = 0;
  uint32_t edges = 0;
  SearchStats stats;  // executed requests only
};

/// Replays `requests` through the public functions the daemon's query
/// path calls, in the daemon's order (server.cc ServeQuery, plus both ends
/// of the codec), against a fresh result cache. With kSpans every call is
/// wrapped in a span whose parent is the request's root span. The spans of
/// a request tile its root, so they cover it by construction.
template <bool kSpans>
std::vector<ReplayOutcome> ReplayPass(QbsIndex& index,
                                      const std::vector<QueryRequest>& requests,
                                      Tracer* tracer,
                                      server::ResultCache::Stats* cache_stats) {
  server::ResultCache cache(server::ResultCache::Options{});
  std::vector<ReplayOutcome> out(requests.size());
  for (uint32_t r = 0; r < requests.size(); ++r) {
    ReplayOutcome& o = out[r];
    RequestTrace<kSpans> trace(tracer, r);

    trace.Enter("protocol.request_codec");
    const std::vector<uint8_t> wire = server::EncodeQueryRequest(requests[r]);
    QueryRequest request;
    const bool decoded = server::DecodeQueryRequest(wire, &request);

    trace.Enter("result_cache.lookup");
    QueryResponse response;
    o.hit = cache.Lookup(request, &response);
    if (!o.hit) {
      trace.Enter("qbs_index.lease");
      std::optional<QbsIndex::SearcherLease> lease;
      lease.emplace(index, 1);
      trace.Enter("sketch.certify");
      const LabelBound certify = ComputeLabelBound(
          index.labeling(), index.meta_graph(), request.u, request.v, 2);
      trace.Enter("guided_search.execute");
      response = index.Execute((*lease)[0], request, &certify);
      trace.Enter("qbs_index.lease");
      lease.reset();
      trace.Enter("result_cache.insert");
      cache.Insert(request, response);
    }

    trace.Enter("protocol.response_encode");
    const std::vector<uint8_t> bytes = server::EncodeQueryResponse(response);
    trace.Enter("protocol.response_decode");
    QueryResponse received;
    const bool parsed = server::DecodeQueryResponse(bytes, &received);
    o.root_ns = trace.Finish();

    if (!o.hit) o.stats = response.stats;
    o.ok = decoded && parsed && SameAnswer(received, response);
    o.response_bytes = static_cast<uint32_t>(bytes.size());
    o.edges = static_cast<uint32_t>(received.spg.edges.size());
  }
  if (cache_stats != nullptr) *cache_stats = cache.GetStats();
  return out;
}

/// Per-layer durations from the spans: for each layer name, one sample per
/// request that called it (several spans of one layer in one request — the
/// lease's acquire and release — add up).
using LayerTimes = std::unordered_map<std::string_view, std::vector<double>>;

LayerTimes SummarizeSpans(const std::vector<Span>& spans) {
  LayerTimes t;
  std::unordered_map<std::string_view, uint32_t> last_request;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    std::vector<double>& samples = t[s.name];
    const auto it = last_request.find(s.name);
    if (it != last_request.end() && it->second == s.request &&
        !samples.empty()) {
      samples.back() += d;
    } else {
      samples.push_back(d);
      last_request[s.name] = s.request;
    }
  }
  return t;
}

void AppendTraceJson(std::string* json, const char* workload, uint64_t seed,
                     const std::vector<Span>& spans) {
  const uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  if (!json->empty()) *json += ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                workload, static_cast<unsigned long long>(seed));
  *json += buf;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                  "\"end_ns\": %llu, \"parent\": %d, \"request\": %u}",
                  i == 0 ? "" : ",", i, s.name,
                  static_cast<unsigned long long>(s.start_ns - base),
                  static_cast<unsigned long long>(s.end_ns - base), s.parent,
                  s.request);
    *json += buf;
  }
  *json += "]}";
}

struct RunContext {
  const Flags& flags;
  const Sizes& sizes;
  double seconds;
  std::string* trace_json;  // null = untraced
};

/// The per-layer metrics of one workload, from a fresh load of its files.
/// `e2e_p50_us` is the untraced closed-loop latency p50.
bool RunLayers(const Workload& w, const Inputs& in,
               const std::vector<QueryRequest>& stream, double e2e_p50_us,
               const RunContext& ctx, const Report& report) {
  Daemon d;
  StartDaemon(Kind::kBatch, in, nullptr, &d);  // no server: one thread
  QbsIndex& index = *d.index;
  const std::vector<QueryRequest> requests(
      stream.begin(),
      stream.begin() + static_cast<std::ptrdiff_t>(
                           std::min(ctx.sizes.replay_requests, stream.size())));

  // Warm pass (discarded), then spans off, then spans on.
  ReplayPass<false>(index, requests, nullptr, nullptr);
  const std::vector<ReplayOutcome> plain =
      ReplayPass<false>(index, requests, nullptr, nullptr);
  Tracer tracer(requests.size() * 12);
  server::ResultCache::Stats cache_stats;
  const std::vector<ReplayOutcome> traced =
      ReplayPass<true>(index, requests, &tracer, &cache_stats);
  const LayerTimes layers = SummarizeSpans(tracer.spans());
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? std::vector<double>{} : it->second;
  };

  double plain_total = 0;
  double traced_total = 0;
  std::vector<double> plain_root_ns;
  uint64_t replay_ok = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    plain_total += static_cast<double>(plain[i].root_ns);
    traced_total += static_cast<double>(traced[i].root_ns);
    plain_root_ns.push_back(static_cast<double>(plain[i].root_ns));
    replay_ok += traced[i].ok && plain[i].ok ? 1 : 0;
  }
  bool correct = report.Check("replay_codec_roundtrip", replay_ok,
                              requests.size());

  // Executed (cache-missed) requests: counters, then a separate d⊤ pass.
  std::vector<size_t> executed;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!traced[i].hit) executed.push_back(i);
  }
  const std::vector<double> execute_ns = layer("guided_search.execute");
  std::vector<double> dtop_ns;
  std::vector<double> search_ns;
  SearchStats sum;
  uint64_t short_circuits = 0;
  uint64_t cov[3] = {0, 0, 0};
  {
    Sketch sketch;
    SketchScratch scratch;
    for (size_t j = 0; j < executed.size(); ++j) {
      const QueryRequest& r = requests[executed[j]];
      const uint64_t t0 = NowNs();
      ComputeSketchInto(index.labeling(), index.meta_graph(), r.u, r.v,
                        &sketch, &scratch, /*with_meta_edges=*/false);
      const double dt = static_cast<double>(NowNs() - t0);
      dtop_ns.push_back(dt);
      const SearchStats& st = traced[executed[j]].stats;
      sum.Accumulate(st);
      if (st.label_short_circuits > 0) {
        ++short_circuits;
      } else if (j < execute_ns.size()) {
        search_ns.push_back(execute_ns[j] - dt);
      }
      if (st.coverage != PairCoverage::kDisconnected) {
        ++cov[static_cast<int>(st.coverage)];
      }
    }
  }
  const double n_exec = static_cast<double>(executed.size());
  const double n_cov = static_cast<double>(cov[0] + cov[1] + cov[2]);
  double bytes_total = 0;
  double edges_total = 0;
  for (const ReplayOutcome& o : traced) {
    bytes_total += o.response_bytes;
    edges_total += o.edges;
  }
  const double n_req = static_cast<double>(requests.size());

  report.Metric("protocol.request_codec_ns",
                Median(layer("protocol.request_codec")), "ns");
  report.Metric("protocol.response_encode_ns",
                Median(layer("protocol.response_encode")), "ns");
  report.Metric("protocol.response_decode_ns",
                Median(layer("protocol.response_decode")), "ns");
  report.Metric("protocol.response_bytes", Ratio(bytes_total, n_req), "bytes");
  report.Metric("result_cache.lookup_ns", Median(layer("result_cache.lookup")),
                "ns");
  report.Metric("result_cache.insert_ns", Median(layer("result_cache.insert")),
                "ns");
  report.Metric("result_cache.replay_hit_rate", cache_stats.HitRate(),
                "ratio");
  report.Metric("server.wire_residual_us",
                e2e_p50_us - Median(plain_root_ns) / 1e3, "us");
  report.Metric("qbs_index.lease_ns", Median(layer("qbs_index.lease")), "ns");
  report.Metric("sketch.certify_ns", Median(layer("sketch.certify")), "ns");
  report.Metric("sketch.dtop_ns", Median(dtop_ns), "ns");
  report.Metric("sketch.short_circuit_frac",
                Ratio(static_cast<double>(short_circuits), n_exec), "ratio");
  report.Metric("guided_search.execute_ns_p50", Quantile(execute_ns, 0.5),
                "ns");
  report.Metric("guided_search.execute_ns_p99", Quantile(execute_ns, kTail),
                "ns");
  report.Metric("guided_search.search_ns", Median(search_ns), "ns");
  const auto per_exec = [&](uint64_t v) {
    return Ratio(static_cast<double>(v), n_exec);
  };
  report.Metric("guided_search.edges_search",
                per_exec(sum.edges_scanned_search), "count");
  report.Metric("guided_search.edges_reverse",
                per_exec(sum.edges_scanned_reverse), "count");
  report.Metric("guided_search.edges_recover",
                per_exec(sum.edges_scanned_recover), "count");
  report.Metric("guided_search.edges_direct",
                per_exec(sum.edges_scanned_direct), "count");
  report.Metric("guided_search.lb_prunes", per_exec(sum.lb_prunes), "count");
  report.Metric("guided_search.landmark_edges_skipped",
                per_exec(sum.landmark_edges_skipped), "count");
  report.Metric("guided_search.cov_all_frac",
                Ratio(static_cast<double>(cov[0]), n_cov), "ratio");
  report.Metric("guided_search.cov_some_frac",
                Ratio(static_cast<double>(cov[1]), n_cov), "ratio");
  report.Metric("guided_search.cov_none_frac",
                Ratio(static_cast<double>(cov[2]), n_cov), "ratio");
  report.Metric("delta_cache.hits_per_query", per_exec(sum.delta_cache_hits),
                "count");
  report.Metric("spg.edges_per_answer", Ratio(edges_total, n_req), "count");
  report.Metric("trace.overhead_frac",
                Ratio(traced_total - plain_total, plain_total), "ratio");

  // Bi-BFS on the same pairs: the paper's Table 2 / §6.5 reference.
  {
    BiBfs bibfs(*d.graph);
    const size_t n = std::min(ctx.sizes.bibfs_pairs, requests.size());
    uint64_t scanned = 0;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      uint64_t edges = 0;
      bibfs.Query(requests[i].u, requests[i].v, &edges);
      scanned += edges;
    }
    const double dn = static_cast<double>(n);
    report.Metric("baselines.bibfs_query_us",
                  Ratio(static_cast<double>(NowNs() - t0) / 1e3, dn), "us");
    report.Metric("baselines.bibfs_edges_per_query",
                  Ratio(static_cast<double>(scanned), dn), "count");
  }

  // QueryBatch parallel efficiency: sequential Execute time of the same
  // batches over kThreads x their QueryBatch wall time.
  {
    const size_t n = std::min(ctx.sizes.parallel_batches * kBatchSize,
                              stream.size()) /
                     kBatchSize * kBatchSize;
    const std::vector<QueryRequest> reqs(
        stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(n));
    double sequential_ns = 0;
    {
      QbsIndex::SearcherLease lease(index, 1);
      const uint64_t t0 = NowNs();
      for (const QueryRequest& r : reqs) index.Execute(lease[0], r);
      sequential_ns = static_cast<double>(NowNs() - t0);
    }
    QbsIndex::BatchOptions options;
    options.num_threads = kThreads;
    double wall_ns = 0;
    for (size_t b = 0; b < n; b += kBatchSize) {
      const std::vector<QueryRequest> batch(
          reqs.begin() + static_cast<std::ptrdiff_t>(b),
          reqs.begin() + static_cast<std::ptrdiff_t>(b + kBatchSize));
      const uint64_t t0 = NowNs();
      index.QueryBatch(batch, options);
      wall_ns += static_cast<double>(NowNs() - t0);
    }
    report.Metric("qbs_index.batch_parallel_eff",
                  Ratio(sequential_ns, static_cast<double>(kThreads) * wall_ns),
                  "ratio");
  }

  {
    const std::string tmp = ctx.flags.work_dir + "/" + w.name + "-save.tmp";
    const auto t0 = Clock::now();
    const bool saved = index.Save(tmp);
    const double save_s = Seconds(t0, Clock::now());
    std::filesystem::remove(tmp);
    correct = report.Check("index_save", saved ? 1 : 0, 1) && correct;
    report.Metric("serialization.save_s", save_s, "s");
  }

  // ApplyUpdates on this bench-owned index, one edit at a time: the first
  // kReplayEdits of the seeded edit stream, which churn_mixed's daemon
  // also applies first. How many more it applies follows the host's speed,
  // so the replay stops there and its counters repeat exactly.
  const std::vector<GraphDelta> edits =
      MakeEdits(*d.graph, kReplayEdits, ctx.flags.seed);
  index.EnableUpdates(d.graph.get(), kThreads);
  std::vector<double> apply_ms;
  uint64_t repaired = 0;
  uint64_t rebuilt = 0;
  uint64_t applied = 0;
  for (const GraphDelta& edit : edits) {
    const auto t0 = Clock::now();
    const UpdateStats st = index.ApplyUpdates(edit);
    apply_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    repaired += st.repaired_columns;
    rebuilt += st.rebuilt_columns;
    applied += st.AppliedTotal();
  }
  correct = report.Check("replay_edits_applied", applied, edits.size()) &&
            correct;
  const double n_edits = static_cast<double>(edits.size());
  report.Metric("updatable_index.apply_ms_p50", Median(apply_ms), "ms");
  report.Metric("updatable_index.columns_repaired",
                Ratio(static_cast<double>(repaired), n_edits), "count");
  report.Metric("updatable_index.columns_rebuilt",
                Ratio(static_cast<double>(rebuilt), n_edits), "count");

  if (ctx.trace_json != nullptr) {
    AppendTraceJson(ctx.trace_json, w.name, ctx.flags.seed, tracer.spans());
  }
  return correct;
}

struct RunTotals {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RunWorkload(const Workload& w, const RunContext& ctx, RunTotals* totals) {
  const Report report(w.name);
  const Sizes& sizes = ctx.sizes;
  const double scale = ctx.flags.smoke ? w.smoke_scale : w.scale;
  const Inputs in = PrepareInputs(w, scale, ctx.flags.work_dir);

  // Set-up: daemon restarts from the files, median of several.
  ReferenceTask ref(in.vertices, in.edges);
  std::vector<double> setup_wall_s, graph_s, index_s;
  Daemon d;
  const RefSamples setup = InReferenceTasks(ref, sizes.setup_reps, [&] {
    d.Reset();  // stop the previous restart before the next one
    SetupSample sample;
    const double cpu0 = ProcessCpuSeconds();
    StartDaemon(w.kind, in, &sample, &d);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    setup_wall_s.push_back(sample.total_s);
    graph_s.push_back(sample.graph_s);
    index_s.push_back(sample.index_s);
    return cpu_s;
  });
  // Index sizes as loaded, before churn edits the index.
  const uint64_t labeling_bytes = d.index->LabelingSizeBytes();
  const uint64_t bp_bytes = d.index->BpMaskSizeBytes();
  const uint64_t delta_bytes = d.index->DeltaSizeBytes();
  const double index_mb =
      static_cast<double>(labeling_bytes + bp_bytes + delta_bytes +
                          d.index->MetaGraphSizeBytes()) /
      1e6;

  // Build: QbS on one thread, median of several. Its split into layers
  // comes from the last build.
  QbsOptions build_options = IndexOptions();
  build_options.num_threads = 1;
  double build_wall_s = 0;
  QbsBuildTimings build_split;
  const RefSamples build = InReferenceTasks(ref, sizes.build_reps, [&] {
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const QbsIndex built = QbsIndex::Build(*d.graph, build_options);
    build_wall_s = Seconds(t0, Clock::now());
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    build_split = built.timings();
    return cpu_s;
  });

  const std::vector<QueryRequest> stream =
      MakeStream(*d.graph, w, sizes, ctx.flags.seed);
  // One edit per round, and rounds of churn take 0.3 s or more: ten edits
  // per second of window never run out.
  const size_t planned_edits =
      w.kind == Kind::kChurn
          ? static_cast<size_t>(std::ceil(ctx.seconds * 10)) + 16
          : 0;
  std::vector<GraphDelta> edits =
      MakeEdits(*d.graph, planned_edits, ctx.flags.seed);
  const size_t round_calls = std::min(w.round_calls, sizes.max_round_calls);

  std::printf(
      "meta workload=%s cpu=\"%s\" nproc=%u build_type=%s scan_kernel=%s "
      "dataset=%s scale=%g vertices=%u edges=%llu landmarks=%u seed=%llu "
      "seconds=%g warmup_s=%g smoke=%d kind=%s conns=%d batch=%zu "
      "threads=%zu round_calls=%zu distinct_pairs=%zu zipf_s=%g "
      "reads_per_edit=%zu ref_round_trips=%zu ref_bfs_reached=%zu "
      "stream_length=%zu "
      "stream_digest=%016llx\n",
      w.name, CpuModel().c_str(), std::thread::hardware_concurrency(),
      QBS_BENCH_BUILD_TYPE, ActiveScanOps().name, w.dataset, scale,
      in.vertices, static_cast<unsigned long long>(in.edges), kLandmarks,
      static_cast<unsigned long long>(ctx.flags.seed), ctx.seconds,
      sizes.warmup_seconds, ctx.flags.smoke ? 1 : 0,
      w.kind == Kind::kServe ? "serve"
                             : (w.kind == Kind::kBatch ? "batch" : "churn"),
      w.kind == Kind::kServe ? 1 : (w.kind == Kind::kChurn ? 2 : 0),
      w.kind == Kind::kBatch ? kBatchSize : size_t{1}, kThreads, round_calls,
      std::min(w.distinct_pairs, sizes.max_distinct_pairs), w.zipf_s,
      w.kind == Kind::kChurn ? round_calls - 1 : size_t{0}, kReferenceRoundTrips,
      ref.bfs().reached(),
      stream.size(), static_cast<unsigned long long>(StreamDigest(stream)));

  // Measured phase, after a warm-up that fills the connection, searcher
  // pools and the result cache (serve_cold's 64 MiB fills in about 2 s).
  const auto begin = Clock::now();
  Window window;
  window.start = begin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 sizes.warmup_seconds));
  window.end = window.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(ctx.seconds));
  LoopStats loop;
  ServerWindow server_window;  // stays zero for batch_far: no daemon
  if (w.kind == Kind::kBatch) {
    BatchLoop(*d.index, stream, window, round_calls, sizes.checks_per_stream,
              ref, &loop);
  } else {
    const uint16_t port = d.server->port();
    std::thread client([&] {
      if (w.kind == Kind::kServe) {
        ServeLoop(port, stream, window, round_calls, sizes.checks_per_stream,
                  ref, &loop);
      } else {
        ChurnLoop(port, stream, edits, window, round_calls, ref, &loop);
      }
    });
    std::this_thread::sleep_until(window.start);
    const auto opened = d.server->GetStats();
    client.join();
    server_window = WindowDelta(opened, d.server->GetStats());
  }
  // The serving process's resident memory: free memory the allocator
  // still holds (from the discarded restarts and builds, and per-thread
  // arenas whose size follows thread timing) goes back first, and the
  // benchmark's own latency samples, which grow with throughput, and its
  // reference graph are not counted.
  malloc_trim(0);
  const double rss_mb =
      ReadRssMb() -
      static_cast<double>(loop.latency_us.size() * sizeof(double) +
                          ref.bfs().SizeBytes()) /
          1e6;
  const LoopSummary summary = Summarize(loop);

  // Oracle checks. churn_mixed's answers are checked after the churn, on
  // the final graph, through the daemon (whose cache it must not serve
  // stale).
  bool correct = true;
  uint64_t wrong = 0;
  if (w.kind == Kind::kChurn) {
    std::vector<Answer> probes;
    server::QueryClient client;
    Require(client.Connect("127.0.0.1", d.server->port()),
            "post-churn probe connect failed");
    for (size_t i = 0; i < sizes.checks_per_stream; ++i) {
      Answer a{stream[i], {}};
      if (client.Query(a.request, &a.response) ==
          server::QueryClient::RpcStatus::kOk) {
        probes.push_back(std::move(a));
      }
    }
    const uint64_t matches = OracleMatches(*d.graph, probes);
    wrong += sizes.checks_per_stream - matches;
    correct = report.Check("oracle_post_churn", matches,
                           sizes.checks_per_stream) &&
              correct;
    correct = report.Check("edits_applied", loop.edits_ok, loop.edits_sent) &&
              correct;
  } else {
    const uint64_t matches = OracleMatches(*d.graph, loop.kept);
    wrong += loop.kept.size() - matches;
    correct = report.Check("oracle", matches, loop.kept.size()) && correct;
    correct = report.Check("oracle_sampled", loop.kept.empty() ? 0 : 1, 1) &&
              correct;
  }

  const uint64_t failed = (loop.attempted - loop.ok) + wrong;
  std::printf("ops %s attempted=%llu failed=%llu\n", w.name,
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(failed));

  // The gated costs: in reference tasks, scaled to the idle host.
  report.Metric("setup_s", setup.refs * w.idle_ref_s, "s");
  report.Metric("build_s", build.refs * w.idle_ref_s, "s");
  report.Metric("request_us", summary.request_refs * w.idle_ref_s * 1e6,
                "us");
  report.Metric("index_mb", index_mb, "MB");
  report.Metric("rss_mb", rss_mb, "MB");
  // Printed for inspection, not gated: the same costs as measured, and the
  // reference task itself, which follow the host's speed, and wall-time
  // figures, which follow it and the scheduler too.
  report.Metric("setup_wall_s", Median(setup_wall_s), "s");
  report.Metric("setup_cpu_s", Median(setup.cpu_s), "s");
  report.Metric("build_cpu_s", Median(build.cpu_s), "s");
  report.Metric("request_cpu_us", summary.request_cpu_us, "us");
  report.Metric("ref_cpu_ms", summary.ref_cpu_ms, "ms");
  report.Metric("rounds", static_cast<double>(loop.rounds.size()), "count");
  report.Metric("throughput_qps", summary.throughput_qps, "req/s");
  report.Metric("latency_p50_us", summary.p50_us, "us");
  report.Metric("latency_p99_us", summary.p99_us, "us");
  report.Metric("latency_samples", static_cast<double>(loop.latency_us.size()),
                "count");
  if (w.kind == Kind::kChurn) {
    report.Metric("update_p50_ms", Quantile(loop.edit_ms, 0.5), "ms");
    report.Metric("update_p90_ms", Quantile(loop.edit_ms, 0.9), "ms");
  }

  if (ctx.trace_json != nullptr) {
    report.Metric("graph.load_s", Median(graph_s), "s");
    report.Metric("serialization.load_s", Median(index_s), "s");
    report.Metric("labeling.build_s", build_split.labeling_seconds, "s");
    report.Metric("delta_cache.build_s", build_split.delta_seconds, "s");
    report.Metric("qbs_index.build_other_s",
                  build_wall_s - build_split.labeling_seconds -
                      build_split.delta_seconds,
                  "s");
    report.Metric("labeling.bytes", static_cast<double>(labeling_bytes),
                  "bytes");
    report.Metric("labeling.bp_bytes", static_cast<double>(bp_bytes), "bytes");
    report.Metric("delta_cache.bytes", static_cast<double>(delta_bytes),
                  "bytes");
    report.Metric("result_cache.hit_rate", server_window.cache.HitRate(),
                  "ratio");
    report.Metric("result_cache.evictions",
                  static_cast<double>(server_window.cache.evictions), "count");
    report.Metric("result_cache.bytes",
                  static_cast<double>(server_window.cache.bytes), "bytes");
    report.Metric("server.busy_rejections",
                  static_cast<double>(server_window.busy_rejections), "count");
    report.Metric("server.deadline_exceeded",
                  static_cast<double>(server_window.deadline_exceeded),
                  "count");
    report.Metric("server.degraded",
                  static_cast<double>(server_window.degraded), "count");
    d.Reset();  // the replay loads its own copy
    correct = RunLayers(w, in, stream, summary.p50_us, ctx, report) && correct;
  }
  std::fflush(stdout);

  totals->correct = totals->correct && correct;
  totals->attempted += loop.attempted;
  totals->failed += failed;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload=<name|all> "
               "--seed=<n> [--seconds=<s>] [--trace=<file>] [--smoke] "
               "[--work-dir=<dir>]\nworkloads:",
               problem.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(64);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--smoke") {
      f.smoke = true;
    } else if (ParseFlag(arg, "workload", &value)) {
      f.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      char* end = nullptr;
      f.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed: " + value);
      have_seed = true;
    } else if (ParseFlag(arg, "seconds", &value)) {
      char* end = nullptr;
      f.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(f.seconds > 0) ||
          f.seconds > 600) {
        Usage("bad --seconds: " + value);
      }
    } else if (ParseFlag(arg, "trace", &value)) {
      f.trace_path = value;
    } else if (ParseFlag(arg, "work-dir", &value)) {
      f.work_dir = value;
    } else {
      Usage("unknown argument: " + arg);
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (f.work_dir.empty()) {
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    f.work_dir = (ec ? std::filesystem::path(".") : exe.parent_path()) /
                 "bench-work";
  }
  return f;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const Sizes sizes = SizesFor(flags.smoke);
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == "all" || flags.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) Usage("unknown workload: " + flags.workload);
  std::error_code ec;
  std::filesystem::create_directories(flags.work_dir, ec);
  Require(!ec, "cannot create " + flags.work_dir + ": " + ec.message());

  std::string trace_json;
  const RunContext ctx{
      flags, sizes, flags.seconds > 0 ? flags.seconds : sizes.default_seconds,
      flags.trace_path.empty() ? nullptr : &trace_json};
  RunTotals totals;
  for (const Workload* w : selected) RunWorkload(*w, ctx, &totals);

  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path, std::ios::trunc);
    out << "{\"runs\": [\n" << trace_json << "\n]}\n";
    out.close();
    Require(out.good(), "cannot write trace file " + flags.trace_path);
  }
  std::printf("result correct=%d attempted=%llu failed=%llu\n",
              totals.correct ? 1 : 0,
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  return totals.correct ? 0 : 1;
}

}  // namespace
}  // namespace qbs::bench_e2e

int main(int argc, char** argv) { return qbs::bench_e2e::Main(argc, argv); }
