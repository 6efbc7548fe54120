#include "workload/synthetic_workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace qbs {

std::vector<QueryPair> WorkloadUniverse(const Graph& g,
                                        const WorkloadOptions& options) {
  // Re-derive the same universe GenerateWorkload uses: the seed stream for
  // universe sampling is decoupled (fixed offset) from the rank-draw
  // stream so changing num_queries never reshuffles which pairs are hot.
  const size_t universe = std::max<size_t>(options.num_distinct_pairs, 1);
  return SampleQueryPairs(g, universe, options.seed ^ 0x9e3779b97f4a7c15ULL);
}

std::vector<TimedQuery> GenerateWorkload(const Graph& g,
                                         const WorkloadOptions& options) {
  QBS_CHECK_GT(g.NumVertices(), 0u);
  const std::vector<QueryPair> universe = WorkloadUniverse(g, options);
  const size_t n = universe.size();

  // Zipfian CDF over ranks 0..n-1: mass(r) = 1 / (r + 1)^s.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), options.zipf_s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  Rng rng(options.seed);
  std::vector<TimedQuery> out;
  out.reserve(options.num_queries);

  // Bursty arrival schedule: the stream is cut into kPhases equal chunks
  // alternating base rate and base * burst_factor, Poisson (exponential
  // inter-arrivals) within each phase. Rate 0 = closed loop, arrival 0.
  constexpr size_t kPhases = 16;
  const size_t phase_len =
      std::max<size_t>((options.num_queries + kPhases - 1) / kPhases, 1);
  const double base_qps = options.arrival_rate_qps;
  double clock_ns = 0.0;
  constexpr uint64_t kMaxArrivalNs = std::chrono::nanoseconds::max().count();

  for (size_t i = 0; i < options.num_queries; ++i) {
    const double u = rng.UniformReal();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const QueryPair& pair = universe[std::min(rank, n - 1)];

    TimedQuery q;
    q.request = QueryRequest(pair.u, pair.v, options.mode, options.budget,
                             options.flags, options.deadline_ms);
    if (base_qps > 0.0) {
      const bool burst = (i / phase_len) % 2 == 1;
      const double rate =
          base_qps * (burst ? std::max(options.burst_factor, 1e-9) : 1.0);
      // Exponential inter-arrival; 1 - U keeps log's argument in (0, 1].
      clock_ns += -std::log(1.0 - rng.UniformReal()) / rate * 1e9;
      // A rate near 0 (or a NaN burst factor) puts the clock past what
      // std::chrono::nanoseconds holds, or at NaN; the cast of either is
      // undefined, so the arrival is capped instead.
      q.arrival_ns = clock_ns < static_cast<double>(kMaxArrivalNs)
                         ? static_cast<uint64_t>(clock_ns)
                         : kMaxArrivalNs;
    }
    out.push_back(q);
  }
  return out;
}

}  // namespace qbs
