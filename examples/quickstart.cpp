// Quickstart: build a graph, build a QbS index, answer a
// shortest-path-graph query, and inspect the result.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/spg.h"
#include "workload/query_workload.h"

int main() {
  // 1. A graph. Any undirected simple graph works; here a scale-free
  //    network of 50k vertices. Real edge lists load via ReadEdgeList().
  const qbs::Graph graph = qbs::BarabasiAlbert(50000, 3, /*seed=*/7);
  std::printf("graph: %u vertices, %llu edges\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  // 2. Offline phase: construct the labelling scheme (20 highest-degree
  //    landmarks, parallel construction = the paper's QbS-P).
  qbs::QbsOptions options;
  options.num_landmarks = 20;
  options.num_threads = 0;  // all hardware threads
  qbs::QbsIndex index = qbs::QbsIndex::Build(graph, options);
  std::printf("index: built in %.3fs (+%.3fs for Delta), labels %.2f MB\n",
              index.timings().labeling_seconds,
              index.timings().delta_seconds,
              static_cast<double>(index.LabelingSizeBytes()) / (1 << 20));

  // 3. Online phase: SPG queries.
  const auto pairs = qbs::SampleQueryPairs(graph, 3, /*seed=*/99);
  for (const auto& [u, v] : pairs) {
    const qbs::QueryResponse response = index.Query({u, v});
    const qbs::ShortestPathGraph& spg = response.spg;
    const qbs::SearchStats& stats = response.stats;
    std::printf(
        "\nSPG(%u, %u): distance %u, %zu vertices, %zu edges, "
        "%llu shortest paths\n",
        u, v, spg.distance, spg.Vertices().size(), spg.edges.size(),
        static_cast<unsigned long long>(spg.CountShortestPaths()));
    std::printf("  sketch bound d_top=%u, edges scanned: %llu "
                "(sparsification skipped %llu)\n",
                stats.d_top,
                static_cast<unsigned long long>(stats.TotalEdgesScanned()),
                static_cast<unsigned long long>(
                    stats.landmark_edges_skipped));
    std::printf("  first edges:");
    for (size_t i = 0; i < spg.edges.size() && i < 8; ++i) {
      std::printf(" (%u,%u)", spg.edges[i].u, spg.edges[i].v);
    }
    std::printf("%s\n", spg.edges.size() > 8 ? " ..." : "");
  }
  return 0;
}
