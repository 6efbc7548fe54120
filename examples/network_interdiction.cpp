// Shortest Path Network Interdiction — one of the problems the paper's
// introduction motivates: find the critical vertices and edges whose
// removal destroys ALL shortest paths between two endpoints (e.g. to harden
// infrastructure against attacks, or to place monitors on unavoidable
// routes).
//
// The shortest path graph makes this a local computation: a vertex/edge is
// critical iff every shortest path passes through it, which path counting
// over the SPG DAG answers exactly.
//
//   $ ./examples/network_interdiction

#include <cstdio>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "core/qbs_index.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace {

// Re-checks criticality by actually deleting the vertex and measuring the
// new distance (demonstration-only; the SPG answer needs no recomputation).
uint32_t DistanceWithout(const qbs::Graph& g, qbs::VertexId removed,
                         qbs::VertexId u, qbs::VertexId v) {
  std::vector<qbs::Edge> edges;
  for (const qbs::Edge& e : g.EdgeList()) {
    if (e.u != removed && e.v != removed) edges.push_back(e);
  }
  const qbs::Graph h = qbs::Graph::FromEdges(g.NumVertices(), edges);
  return qbs::BiBfs(h).Distance(u, v);
}

}  // namespace

int main() {
  // A computer-network stand-in (Skitter-like internet topology).
  const qbs::Graph graph =
      qbs::MakeDataset(qbs::DatasetByAbbrev("SK"), /*scale=*/0.5);
  std::printf("network: %u routers, %llu links\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  qbs::QbsOptions options;
  options.num_threads = 0;
  qbs::QbsIndex index = qbs::QbsIndex::Build(graph, options);

  // Scan for endpoint pairs whose communication is interdictable: some
  // vertex lies on ALL of their shortest paths.
  std::printf("\n%-8s %-8s %-6s %-8s %-10s %-10s %s\n", "src", "dst", "dist",
              "#paths", "critical", "cut-links", "verified");
  int shown = 0;
  for (const auto& [u, v] : qbs::SampleQueryPairs(graph, 2000, 5)) {
    const auto spg = index.Query({u, v}).spg;
    if (!spg.Connected() || spg.distance < 3) continue;
    const auto critical = spg.CriticalVertices();
    const auto cut_links = spg.CriticalEdges();
    if (critical.empty() && cut_links.empty()) continue;

    // Independent verification: removing a critical vertex must strictly
    // increase the distance (or disconnect the pair).
    bool verified = true;
    if (!critical.empty()) {
      const uint32_t after = DistanceWithout(graph, critical[0], u, v);
      verified = after > spg.distance;
    }
    std::printf("%-8u %-8u %-6u %-8llu %-10zu %-10zu %s\n", u, v,
                spg.distance,
                static_cast<unsigned long long>(spg.CountShortestPaths()),
                critical.size(), cut_links.size(),
                verified ? "yes" : "NO");
    if (++shown == 10) break;
  }

  if (shown == 0) {
    std::printf("(no interdictable pairs in the sample — the network is "
                "highly redundant)\n");
  } else {
    std::printf(
        "\nEach row lists vertices/links lying on every shortest path of "
        "the pair;\nremoving any one forces the pair onto strictly longer "
        "routes (verified above\nby deletion + re-search). Computing this "
        "from the SPG is exact — unlike\nsampling one shortest path, which "
        "misses alternative routes.\n");
  }
  return 0;
}
