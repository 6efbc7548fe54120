// Shared test fixtures: the paper's worked-example graphs and brute-force
// validators used by the property tests.

#ifndef QBS_TESTS_TEST_UTIL_H_
#define QBS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/labeling.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs::testing {

// Builds a graph from 1-indexed edge pairs (the paper's figures number
// vertices from 1); vertex k in the paper is vertex k-1 here.
inline Graph FromPaperEdges(
    VertexId n, std::initializer_list<std::pair<int, int>> edges) {
  std::vector<Edge> e;
  for (const auto& [a, b] : edges) {
    e.emplace_back(static_cast<VertexId>(a - 1), static_cast<VertexId>(b - 1));
  }
  return Graph::FromEdges(n, std::move(e));
}

// The 7-vertex graph of Figure 3 (paper ids 1..7 -> 0..6). The SPG(3, 7)
// answer is {3-1, 1-2, 3-4, 4-2, 2-5, 5-7} (paper ids).
inline Graph Figure3Graph() {
  return FromPaperEdges(7, {{1, 2},
                            {1, 3},
                            {2, 4},
                            {3, 4},
                            {2, 5},
                            {2, 6},
                            {5, 6},
                            {5, 7}});
}

// The 14-vertex running-example graph of Figures 2/4/5/6 (paper ids 1..14
// -> 0..13), reconstructed to be consistent with every published artifact:
// the path labelling table (Fig. 4c), the meta-graph (Fig. 4b, Example
// 4.3), the sketch for SPG(6, 11) (Example 4.7: d⊤ = 5, d*_6 = 0,
// d*_11 = 2), the bi-directional BFS trace (Example 4.8: P_6 =
// {5,7,8,14}, P_11 = {10,12,9,8}, meeting at 8), and the final answer in
// Figure 6(f).
inline Graph Figure4Graph() {
  return FromPaperEdges(14, {{1, 2},
                             {1, 4},
                             {1, 5},
                             {1, 6},
                             {2, 3},
                             {2, 8},
                             {2, 9},
                             {3, 4},
                             {3, 12},
                             {3, 13},
                             {5, 6},
                             {5, 14},
                             {6, 7},
                             {7, 8},
                             {8, 9},
                             {9, 10},
                             {10, 11},
                             {11, 12},
                             {13, 14}});
}

// Landmarks of the running example: paper vertices {1, 2, 3}.
inline std::vector<VertexId> Figure4Landmarks() { return {0, 1, 2}; }

// Normalized edge set from 1-indexed pairs, for comparing against SPG
// results.
inline std::vector<Edge> PaperEdgeSet(
    std::initializer_list<std::pair<int, int>> edges) {
  std::vector<Edge> e;
  for (const auto& [a, b] : edges) {
    e.push_back(Edge(static_cast<VertexId>(a - 1),
                     static_cast<VertexId>(b - 1))
                    .Normalized());
  }
  std::sort(e.begin(), e.end());
  return e;
}

// Distance from `from` to `to` in g with the vertices in `removed` deleted
// (kUnreachable if none). Used to brute-force the labelling definition.
inline uint32_t MaskedDistance(const Graph& g, VertexId from, VertexId to,
                               const std::vector<bool>& removed) {
  if (removed[from] || removed[to]) return kUnreachable;
  std::vector<uint32_t> dist(g.NumVertices(), kUnreachable);
  std::vector<VertexId> queue{from};
  dist[from] = 0;
  size_t head = 0;
  while (head < queue.size()) {
    const VertexId u = queue[head++];
    if (u == to) return dist[u];
    for (VertexId w : g.Neighbors(u)) {
      if (removed[w] || dist[w] != kUnreachable) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  return dist[to];
}

// Brute-force check of Definition 4.2 (+ Definition 4.1 for the meta-graph)
// against a labelling scheme. Returns true and fills *message on success;
// aborts via gtest assertions are left to the caller.
inline bool VerifyLabelingDefinition(const Graph& g,
                                     const LabelingScheme& scheme,
                                     std::string* message) {
  const PathLabeling& l = scheme.labeling;
  const uint32_t k = l.num_landmarks();
  std::vector<std::vector<uint32_t>> true_dist(k);
  for (uint32_t i = 0; i < k; ++i) {
    true_dist[i] = BfsDistances(g, l.LandmarkVertex(i));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t i = 0; i < k; ++i) {
      const DistT stored = l.Get(v, i);
      if (l.IsLandmark(v)) {
        if (stored != kInfDist) {
          *message = "landmark has a stored label";
          return false;
        }
        continue;
      }
      // Entry iff a shortest path exists avoiding all other landmarks.
      std::vector<bool> removed(g.NumVertices(), false);
      for (uint32_t j = 0; j < k; ++j) {
        if (j != i) removed[l.LandmarkVertex(j)] = true;
      }
      const uint32_t masked =
          MaskedDistance(g, v, l.LandmarkVertex(i), removed);
      const bool expect_entry =
          masked != kUnreachable && masked == true_dist[i][v];
      if (expect_entry != (stored != kInfDist)) {
        *message = "label presence mismatch at v=" + std::to_string(v) +
                   " landmark=" + std::to_string(i);
        return false;
      }
      if (expect_entry && stored != true_dist[i][v]) {
        *message = "label distance mismatch at v=" + std::to_string(v);
        return false;
      }
    }
  }
  // Meta-graph edges (Definition 4.1).
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) {
      std::vector<bool> removed(g.NumVertices(), false);
      for (uint32_t m = 0; m < k; ++m) {
        if (m != i && m != j) removed[l.LandmarkVertex(m)] = true;
      }
      const uint32_t masked =
          MaskedDistance(g, l.LandmarkVertex(i), l.LandmarkVertex(j), removed);
      const uint32_t truth = true_dist[i][l.LandmarkVertex(j)];
      const bool expect_edge = masked != kUnreachable && masked == truth;
      const uint32_t w = scheme.meta.EdgeWeight(i, j);
      if (expect_edge != (w != kUnreachable)) {
        *message = "meta edge presence mismatch at (" + std::to_string(i) +
                   "," + std::to_string(j) + ")";
        return false;
      }
      if (expect_edge && w != truth) {
        *message = "meta edge weight mismatch";
        return false;
      }
    }
  }
  return true;
}

// Four small graph families for the label-bound and fast-path sweeps:
// 0 = BA (hubs), 1 = connected ER, 2 = small-world ring, 3 = 10 x 12 grid.
inline Graph SmallFamilyGraph(int family, uint64_t seed) {
  switch (family) {
    case 0:
      return BarabasiAlbert(150, 3, seed);
    case 1:
      return LargestComponent(ErdosRenyi(150, 320, seed)).graph;
    case 2:
      return WattsStrogatz(150, 4, 0.2, seed);
    default:
      return GridGraph(10, 12);
  }
}

// Seeds of the edit-script property tests (label `dynamic`): the
// comma-separated QBS_DYNAMIC_SEEDS when set — the CI gauntlet job passes
// 16 fresh seeds per run and logs them — else 1..16. Tests print every
// seed, so a failure replays with QBS_DYNAMIC_SEEDS=<seed>.
inline std::vector<uint64_t> DynamicSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("QBS_DYNAMIC_SEEDS")) {
    const std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t end = s.find(',', pos);
      if (end == std::string::npos) end = s.size();
      const std::string tok = s.substr(pos, end - pos);
      if (!tok.empty()) {
        seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
      pos = end + 1;
    }
  }
  if (seeds.empty()) {
    for (uint64_t i = 1; i <= 16; ++i) seeds.push_back(i);
  }
  return seeds;
}

}  // namespace qbs::testing

#endif  // QBS_TESTS_TEST_UTIL_H_
