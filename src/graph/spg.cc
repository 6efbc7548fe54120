#include "graph/spg.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/check.h"

namespace qbs {
namespace {

// Saturating 64-bit multiply / add for path counting: shortest path counts
// grow exponentially in dense SPGs and exact values beyond 2^64 are not
// needed by any caller.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > std::numeric_limits<uint64_t>::max() - b
             ? std::numeric_limits<uint64_t>::max()
             : a + b;
}
uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<uint64_t>::max() / b) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

// Local view of the SPG with dense vertex ids, BFS levels from `u`, and
// per-vertex shortest path counts from both endpoints.
struct SpgAnalysis {
  std::vector<VertexId> vertices;              // local -> original id
  std::unordered_map<VertexId, uint32_t> id;   // original -> local id
  std::vector<std::vector<uint32_t>> adj;      // local adjacency
  std::vector<uint32_t> level;                 // BFS level from u
  std::vector<uint64_t> from_u;                // #paths u -> w
  std::vector<uint64_t> from_v;                // #paths w -> v
  uint64_t total = 0;                          // #paths u -> v
  bool valid = false;
};

SpgAnalysis Analyze(const ShortestPathGraph& spg) {
  SpgAnalysis a;
  if (!spg.Connected()) return a;
  a.vertices = spg.Vertices();
  for (uint32_t i = 0; i < a.vertices.size(); ++i) a.id[a.vertices[i]] = i;
  a.adj.resize(a.vertices.size());
  for (const Edge& e : spg.edges) {
    const uint32_t x = a.id.at(e.u);
    const uint32_t y = a.id.at(e.v);
    a.adj[x].push_back(y);
    a.adj[y].push_back(x);
  }

  const uint32_t n = static_cast<uint32_t>(a.vertices.size());
  const uint32_t src = a.id.at(spg.u);
  const uint32_t dst = a.id.at(spg.v);
  a.level.assign(n, kUnreachable);
  a.from_u.assign(n, 0);
  a.from_v.assign(n, 0);
  a.level[src] = 0;
  a.from_u[src] = 1;
  std::vector<uint32_t> order{src};
  for (size_t head = 0; head < order.size(); ++head) {
    const uint32_t x = order[head];
    for (uint32_t y : a.adj[x]) {
      if (a.level[y] == kUnreachable) {
        a.level[y] = a.level[x] + 1;
        order.push_back(y);
      }
      if (a.level[y] == a.level[x] + 1) {
        a.from_u[y] = SatAdd(a.from_u[y], a.from_u[x]);
      }
    }
  }
  if (a.level[dst] != spg.distance) {
    // An SPG must realize d(u, v) inside itself; if not, the input edge set
    // is not a valid SPG and counting is meaningless.
    return a;
  }
  // Backward counts, processing vertices by decreasing level.
  std::vector<uint32_t> by_level(order.rbegin(), order.rend());
  a.from_v[dst] = 1;
  for (uint32_t x : by_level) {
    if (x == dst) continue;
    for (uint32_t y : a.adj[x]) {
      if (a.level[y] == a.level[x] + 1) {
        a.from_v[x] = SatAdd(a.from_v[x], a.from_v[y]);
      }
    }
  }
  a.total = a.from_u[dst];
  a.valid = true;
  return a;
}

// (u << 32) | v: keys order as Edge::operator< orders the edges, in one
// integer comparison.
uint64_t PackedKey(const Edge& e) { return (uint64_t{e.u} << 32) | e.v; }

}  // namespace

void ShortestPathGraph::Normalize() {
  for (Edge& e : edges) e = e.Normalized();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return PackedKey(a) < PackedKey(b);
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

void ShortestPathGraph::AssignNormalized(std::span<const Edge> raw,
                                         std::vector<uint64_t>* keys) {
  keys->clear();
  for (const Edge& e : raw) keys->push_back(PackedKey(e.Normalized()));
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
  edges.clear();
  edges.reserve(keys->size());
  for (const uint64_t key : *keys) {
    edges.emplace_back(static_cast<VertexId>(key >> 32),
                       static_cast<VertexId>(key));
  }
}

std::vector<VertexId> ShortestPathGraph::Vertices() const {
  if (!Connected()) return {};
  std::vector<VertexId> vs;
  vs.reserve(edges.size() * 2 + 2);
  vs.push_back(u);
  vs.push_back(v);
  for (const Edge& e : edges) {
    vs.push_back(e.u);
    vs.push_back(e.v);
  }
  std::sort(vs.begin(), vs.end());
  vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
  return vs;
}

uint64_t ShortestPathGraph::CountShortestPaths() const {
  if (!Connected()) return 0;
  if (u == v) return 1;
  const SpgAnalysis a = Analyze(*this);
  return a.valid ? a.total : 0;
}

std::vector<VertexId> ShortestPathGraph::CriticalVertices() const {
  std::vector<VertexId> result;
  if (!Connected() || u == v) return result;
  const SpgAnalysis a = Analyze(*this);
  if (!a.valid) return result;
  for (uint32_t i = 0; i < a.vertices.size(); ++i) {
    const VertexId orig = a.vertices[i];
    if (orig == u || orig == v) continue;
    // Paths through i = (#paths u->i) * (#paths i->v); i is critical iff all
    // shortest paths pass through it. Saturation makes this conservative:
    // saturated counts compare equal only when both saturate, which at
    // UINT64_MAX path counts is an acceptable approximation.
    if (SatMul(a.from_u[i], a.from_v[i]) == a.total) {
      result.push_back(orig);
    }
  }
  return result;
}

std::vector<Edge> ShortestPathGraph::CriticalEdges() const {
  std::vector<Edge> result;
  if (!Connected() || u == v) return result;
  const SpgAnalysis a = Analyze(*this);
  if (!a.valid) return result;
  for (const Edge& e : edges) {
    uint32_t x = a.id.at(e.u);
    uint32_t y = a.id.at(e.v);
    if (a.level[x] > a.level[y]) std::swap(x, y);
    QBS_DCHECK(a.level[y] == a.level[x] + 1);
    if (SatMul(a.from_u[x], a.from_v[y]) == a.total) {
      result.push_back(e);
    }
  }
  return result;
}

}  // namespace qbs
