#include "graph/graph.h"

#include <algorithm>

#include "util/check.h"

namespace qbs {

Graph Graph::FromEdges(VertexId num_vertices, std::vector<Edge> edges) {
  // Normalize, drop self-loops, dedupe.
  size_t out = 0;
  for (const Edge& e : edges) {
    QBS_CHECK_LT(e.u, num_vertices);
    QBS_CHECK_LT(e.v, num_vertices);
    if (e.u == e.v) continue;
    edges[out++] = e.Normalized();
  }
  edges.resize(out);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  // Count degrees.
  for (const Edge& e : edges) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (size_t v = 1; v < g.offsets_.size(); ++v) {
    g.offsets_[v] += g.offsets_[v - 1];
  }
  g.adjacency_.resize(edges.size() * 2);
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  // Each per-vertex slice is sorted because edges were sorted by (u, v) and
  // filled in order for the u side; the v side needs a per-vertex sort.
  for (VertexId v = 0; v < num_vertices; ++v) {
    std::sort(g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]),
              g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]));
  }
  return g;
}

Graph Graph::FromCsr(std::vector<uint64_t> offsets,
                     std::vector<VertexId> adjacency) {
  QBS_CHECK(IsValidCsr(offsets, adjacency));
  return AdoptCsr(std::move(offsets), std::move(adjacency));
}

bool Graph::IsValidCsr(std::span<const uint64_t> offsets,
                       std::span<const VertexId> adjacency) {
  return ValidCsrOffsets(offsets, adjacency.size()) &&
         ValidCsrLists(offsets, adjacency, 0,
                       static_cast<VertexId>(offsets.size() - 1));
}

bool Graph::ValidCsrOffsets(std::span<const uint64_t> offsets,
                            uint64_t adjacency_size) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != adjacency_size || adjacency_size % 2 != 0) {
    return false;
  }
  bool descends = false;
  for (size_t v = 1; v < offsets.size(); ++v) {
    descends |= offsets[v - 1] > offsets[v];
  }
  return !descends;
}

bool Graph::ValidCsrLists(std::span<const uint64_t> offsets,
                          std::span<const VertexId> adjacency,
                          VertexId begin, VertexId end) {
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  // Strict order makes the last entry the list's largest, so one bound
  // test on it covers the whole list. `bad` is a word, not a bool, so that
  // the compiler vectorizes the loop over a list.
  uint32_t bad = 0;
  for (VertexId v = begin; v < end; ++v) {
    const VertexId* list = adjacency.data() + offsets[v];
    const uint64_t degree = offsets[v + 1] - offsets[v];
    if (degree == 0) continue;
    bad |= static_cast<uint32_t>(list[0] == v) |
           static_cast<uint32_t>(list[degree - 1] >= n);
    for (uint64_t i = 1; i < degree; ++i) {
      bad |= static_cast<uint32_t>(list[i - 1] >= list[i]) |
             static_cast<uint32_t>(list[i] == v);
    }
  }
  return bad == 0;
}

Graph Graph::AdoptCsr(std::vector<uint64_t> offsets,
                      std::vector<VertexId> adjacency) {
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  QBS_DCHECK(u < NumVertices() && v < NumVertices());
  // Search the smaller list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (VertexId v = 0; v < NumVertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

double Graph::AverageDegree() const {
  if (NumVertices() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(NumVertices());
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (VertexId v = 0; v < NumVertices(); ++v) {
    for (VertexId w : Neighbors(v)) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return edges;
}

}  // namespace qbs
