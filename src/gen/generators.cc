#include "gen/generators.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace qbs {

Graph ErdosRenyi(VertexId n, uint64_t num_edges, uint64_t seed) {
  QBS_CHECK_GE(n, 2u);
  const uint64_t max_edges = static_cast<uint64_t>(n) * (n - 1) / 2;
  QBS_CHECK_LE(num_edges, max_edges);
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (seen.size() < num_edges) {
    const auto u = static_cast<VertexId>(rng.UniformInt(n));
    const auto v = static_cast<VertexId>(rng.UniformInt(n));
    if (u == v) continue;
    const uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                         static_cast<uint64_t>(std::max(u, v));
    if (seen.insert(key).second) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph BarabasiAlbert(VertexId n, uint32_t m, uint64_t seed) {
  QBS_CHECK_GE(m, 1u);
  QBS_CHECK_GT(n, m);
  Rng rng(seed);

  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it is sampling proportionally to degree (the classic BA trick).
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(static_cast<size_t>(n) * m * 2);
  std::vector<Edge> edges;

  // Seed graph: clique on the first m+1 vertices so every early vertex has
  // degree >= m and the pool is non-degenerate.
  const VertexId seed_size = m + 1;
  for (VertexId i = 0; i < seed_size; ++i) {
    for (VertexId j = i + 1; j < seed_size; ++j) {
      edges.emplace_back(i, j);
      endpoint_pool.push_back(i);
      endpoint_pool.push_back(j);
    }
  }

  std::vector<VertexId> picks;
  for (VertexId v = seed_size; v < n; ++v) {
    picks.clear();
    // Sample m distinct existing vertices by degree.
    while (picks.size() < m) {
      const VertexId t =
          endpoint_pool[rng.UniformInt(endpoint_pool.size())];
      if (std::find(picks.begin(), picks.end(), t) == picks.end()) {
        picks.push_back(t);
      }
    }
    for (VertexId t : picks) {
      edges.emplace_back(v, t);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(t);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph WattsStrogatz(VertexId n, uint32_t k, double beta, uint64_t seed) {
  QBS_CHECK_GE(n, 3u);
  QBS_CHECK_EQ(k % 2, 0u);
  QBS_CHECK_GE(k, 2u);
  QBS_CHECK_LT(k, n);
  Rng rng(seed);

  // Ring lattice edges as (u, u + d mod n) for d in [1, k/2]; each edge's
  // far endpoint is rewired with probability beta.
  std::unordered_set<uint64_t> present;
  auto key = [](VertexId a, VertexId b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) |
           static_cast<uint64_t>(std::max(a, b));
  };
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(n) * (k / 2));
  for (VertexId u = 0; u < n; ++u) {
    for (uint32_t d = 1; d <= k / 2; ++d) {
      const VertexId v = static_cast<VertexId>((u + d) % n);
      edges.emplace_back(u, v);
      present.insert(key(u, v));
    }
  }
  for (Edge& e : edges) {
    if (!rng.Bernoulli(beta)) continue;
    // Rewire e.v to a uniform vertex avoiding self-loops and duplicates.
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto w = static_cast<VertexId>(rng.UniformInt(n));
      if (w == e.u || present.contains(key(e.u, w))) continue;
      present.erase(key(e.u, e.v));
      present.insert(key(e.u, w));
      e.v = w;
      break;
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph RMat(uint32_t scale, uint32_t edge_factor, double a, double b, double c,
           uint64_t seed) {
  QBS_CHECK_LE(scale, 28u);
  const double d = 1.0 - a - b - c;
  QBS_CHECK_GE(d, 0.0);
  Rng rng(seed);
  const VertexId n = static_cast<VertexId>(1u) << scale;
  const uint64_t target = static_cast<uint64_t>(edge_factor) * n;

  std::vector<Edge> edges;
  edges.reserve(target);
  for (uint64_t i = 0; i < target; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.UniformReal();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph PathGraph(VertexId n) {
  QBS_CHECK_GE(n, 1u);
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, std::move(edges));
}

Graph CycleGraph(VertexId n) {
  QBS_CHECK_GE(n, 3u);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return Graph::FromEdges(n, std::move(edges));
}

Graph GridGraph(uint32_t rows, uint32_t cols) {
  QBS_CHECK_GE(rows, 1u);
  QBS_CHECK_GE(cols, 1u);
  const VertexId n = rows * cols;
  std::vector<Edge> edges;
  auto id = [cols](uint32_t r, uint32_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph StarGraph(VertexId n) {
  QBS_CHECK_GE(n, 1u);
  std::vector<Edge> edges;
  for (VertexId i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph::FromEdges(n, std::move(edges));
}

Graph CompleteGraph(VertexId n) {
  QBS_CHECK_GE(n, 1u);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph CompleteBinaryTree(VertexId n) {
  QBS_CHECK_GE(n, 1u);
  std::vector<Edge> edges;
  for (VertexId i = 1; i < n; ++i) edges.emplace_back(i, (i - 1) / 2);
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace qbs
