#include "workload/query_workload.h"

#include "baselines/bibfs.h"
#include "util/check.h"
#include "util/rng.h"

namespace qbs {

std::vector<QueryPair> SampleQueryPairs(const Graph& g, size_t count,
                                        uint64_t seed) {
  QBS_CHECK_GE(g.NumVertices(), 2u);
  Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto u = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
    const auto v = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
    if (u == v) continue;
    pairs.push_back(QueryPair{u, v});
  }
  return pairs;
}

double DistanceDistribution::Mean() const {
  uint64_t connected = 0;
  uint64_t sum = 0;
  for (size_t d = 0; d < counts.size(); ++d) {
    connected += counts[d];
    sum += counts[d] * d;
  }
  return connected == 0
             ? 0.0
             : static_cast<double>(sum) / static_cast<double>(connected);
}

DistanceDistribution ComputeDistanceDistribution(
    const Graph& g, std::span<const QueryPair> pairs) {
  DistanceDistribution dist;
  dist.total = pairs.size();
  BiBfs bibfs(g);
  for (const QueryPair& p : pairs) {
    const uint32_t d = bibfs.Distance(p.u, p.v);
    if (d == kUnreachable) {
      ++dist.disconnected;
      continue;
    }
    if (dist.counts.size() <= d) dist.counts.resize(d + 1, 0);
    ++dist.counts[d];
  }
  return dist;
}

}  // namespace qbs
