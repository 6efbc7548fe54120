// Shortest Path Rerouting — another problem from the paper's introduction:
// given two shortest paths between the same endpoints, find a step-by-step
// reconfiguration from one to the other where consecutive paths differ in
// exactly one vertex (each step keeps a valid shortest path, e.g. for
// migrating live traffic without ever leaving an optimal route).
//
// The shortest path graph is exactly the search space: every shortest path
// is a u→v chain in the SPG DAG, so path enumeration and the
// reconfiguration BFS both run on the (small) SPG instead of the full
// graph.
//
//   $ ./examples/route_rerouting

#include <algorithm>
#include <cstdio>
#include <map>
#include <queue>
#include <vector>

#include "core/qbs_index.h"
#include "graph/bfs.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace {

using Path = std::vector<qbs::VertexId>;

// Enumerates shortest paths (as vertex sequences) from the SPG by DFS over
// its level DAG, up to `limit`.
std::vector<Path> EnumeratePaths(const qbs::ShortestPathGraph& spg,
                                 size_t limit) {
  std::map<qbs::VertexId, std::vector<qbs::VertexId>> forward;
  std::map<qbs::VertexId, uint32_t> level;
  // Levels via BFS from u inside the SPG.
  std::map<qbs::VertexId, std::vector<qbs::VertexId>> adj;
  for (const qbs::Edge& e : spg.edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::queue<qbs::VertexId> queue;
  queue.push(spg.u);
  level[spg.u] = 0;
  while (!queue.empty()) {
    const qbs::VertexId x = queue.front();
    queue.pop();
    for (qbs::VertexId y : adj[x]) {
      if (!level.contains(y)) {
        level[y] = level[x] + 1;
        queue.push(y);
      }
      if (level[y] == level[x] + 1) forward[x].push_back(y);
    }
  }
  std::vector<Path> paths;
  Path current{spg.u};
  // Iterative DFS with explicit branch stack.
  struct Frame {
    qbs::VertexId vertex;
    size_t next_child = 0;
  };
  std::vector<Frame> stack{{spg.u, 0}};
  while (!stack.empty() && paths.size() < limit) {
    Frame& frame = stack.back();
    if (frame.vertex == spg.v) {
      paths.push_back(current);
      stack.pop_back();
      current.pop_back();
      continue;
    }
    const auto& children = forward[frame.vertex];
    if (frame.next_child >= children.size()) {
      stack.pop_back();
      current.pop_back();
      continue;
    }
    const qbs::VertexId child = children[frame.next_child++];
    stack.push_back({child, 0});
    current.push_back(child);
  }
  return paths;
}

// Paths are adjacent in the reconfiguration graph iff they differ in
// exactly one vertex (same length, aligned positions).
bool DifferInOneVertex(const Path& a, const Path& b) {
  if (a.size() != b.size()) return false;
  int diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i] && ++diff > 1) return false;
  }
  return diff == 1;
}

void PrintPath(const Path& p) {
  for (size_t i = 0; i < p.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : "-", p[i]);
  }
}

}  // namespace

int main() {
  const qbs::Graph graph =
      qbs::MakeDataset(qbs::DatasetByAbbrev("DB"), /*scale=*/0.5);
  std::printf("collaboration network: %u vertices, %llu edges\n",
              graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  qbs::QbsOptions options;
  options.num_threads = 0;
  qbs::QbsIndex index = qbs::QbsIndex::Build(graph, options);

  // Find a pair with several shortest paths and try to reroute between the
  // two most different ones.
  for (const auto& [u, v] : qbs::SampleQueryPairs(graph, 3000, 21)) {
    const auto spg = index.Query({u, v}).spg;
    const uint64_t count = spg.CountShortestPaths();
    if (spg.distance < 3 || count < 3 || count > 64) continue;

    const auto paths = EnumeratePaths(spg, 64);
    // BFS over the reconfiguration graph (paths adjacent iff they differ in
    // exactly one vertex), starting from paths[0]; reroute to the farthest
    // reachable path.
    std::vector<int> prev(paths.size(), -1);
    std::vector<bool> seen(paths.size(), false);
    std::queue<size_t> queue;
    queue.push(0);
    seen[0] = true;
    size_t target = 0;
    while (!queue.empty()) {
      const size_t i = queue.front();
      queue.pop();
      target = i;  // BFS order: the last dequeued path is a farthest one
      for (size_t j = 0; j < paths.size(); ++j) {
        if (!seen[j] && DifferInOneVertex(paths[i], paths[j])) {
          seen[j] = true;
          prev[j] = static_cast<int>(i);
          queue.push(j);
        }
      }
    }

    std::printf("\nSPG(%u, %u): distance %u, %llu shortest paths\n", u, v,
                spg.distance, static_cast<unsigned long long>(count));
    if (target == 0) {
      std::printf("  paths[0] has no single-vertex-swap neighbour — the "
                  "reconfiguration graph is\n  disconnected here (a known "
                  "phenomenon in rerouting); trying another pair.\n");
      continue;
    }
    std::vector<size_t> sequence;
    for (int i = static_cast<int>(target); i != -1; i = prev[i]) {
      sequence.push_back(static_cast<size_t>(i));
    }
    std::reverse(sequence.begin(), sequence.end());
    std::printf("  rerouting sequence (%zu steps, each swaps one vertex, "
                "every step stays shortest):\n",
                sequence.size() - 1);
    for (size_t step = 0; step < sequence.size(); ++step) {
      std::printf("   %2zu: ", step);
      PrintPath(paths[sequence[step]]);
      std::printf("\n");
    }
    return 0;
  }
  std::printf("no suitable pair found in the sample\n");
  return 0;
}
