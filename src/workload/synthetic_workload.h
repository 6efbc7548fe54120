// Seeded synthetic serving workloads for `qbs serve`: Zipfian pair
// popularity (a small universe of distinct pairs, rank-r probability
// proportional to 1/r^s — the classic hot-pair skew that makes a result
// cache earn its keep) with optionally bursty Poisson arrivals (alternating
// base-rate and burst-rate phases).
//
// Everything is a pure function of (graph, options) — same seed, same
// graph, same byte-for-byte request sequence and arrival schedule — so
// load-test results (and cache hit-rates under a single connection) are
// exactly reproducible, which synthetic_workload_test and bench_e2e's
// smoke test assert.

#ifndef QBS_WORKLOAD_SYNTHETIC_WORKLOAD_H_
#define QBS_WORKLOAD_SYNTHETIC_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/query_api.h"
#include "graph/graph.h"
#include "workload/query_workload.h"

namespace qbs {

struct WorkloadOptions {
  /// Total requests generated.
  size_t num_queries = 10000;
  /// Size of the distinct-pair universe the Zipfian ranks draw from
  /// (clamped so it stays sampleable). Smaller universe + small s = hotter
  /// workload = higher achievable cache hit-rate.
  size_t num_distinct_pairs = 1000;
  /// Zipf exponent s (rank-r mass proportional to 1/r^s). 0 = uniform over
  /// the universe.
  double zipf_s = 0.99;
  /// Stamped into every request.
  QueryMode mode = QueryMode::kSpg;
  uint32_t budget = 0;
  uint32_t flags = 0;
  /// Per-request relative deadline stamped into every request
  /// (kNoDeadline = none — the server answers kDeadlineExceeded for
  /// requests it cannot start in time).
  uint32_t deadline_ms = kNoDeadline;
  uint64_t seed = 42;

  /// Mean arrival rate in queries/second. 0 = closed loop: every
  /// arrival_ns is 0 and the load driver fires as fast as the server
  /// admits.
  double arrival_rate_qps = 0.0;
  /// Arrivals alternate between phases at the base rate and phases at
  /// base * burst_factor (Poisson within each phase). burst_factor = 1
  /// disables burstiness.
  double burst_factor = 4.0;
  /// Number of alternating phases the query stream is split into.
  size_t phases = 16;
};

struct TimedQuery {
  QueryRequest request;
  /// Scheduled arrival offset from workload start (0 in closed-loop mode).
  uint64_t arrival_ns = 0;
};

/// The distinct-pair universe in Zipf rank order (rank 0 = hottest).
/// Deterministic in options.seed; pairs have u != v when |V| > 1.
std::vector<QueryPair> WorkloadUniverse(const Graph& g,
                                        const WorkloadOptions& options);

/// The full request stream with arrival schedule. Deterministic in
/// options.seed.
std::vector<TimedQuery> GenerateWorkload(const Graph& g,
                                         const WorkloadOptions& options);

}  // namespace qbs

#endif  // QBS_WORKLOAD_SYNTHETIC_WORKLOAD_H_
