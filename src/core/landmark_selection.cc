#include "core/landmark_selection.h"

#include <algorithm>
#include <numeric>

namespace qbs {

std::vector<VertexId> SelectLandmarks(const Graph& g, uint32_t count) {
  const VertexId n = g.NumVertices();
  if (count > n) count = n;
  std::vector<VertexId> vertices(n);
  std::iota(vertices.begin(), vertices.end(), 0);
  std::partial_sort(vertices.begin(), vertices.begin() + count,
                    vertices.end(), [&g](VertexId a, VertexId b) {
                      const uint32_t da = g.Degree(a);
                      const uint32_t db = g.Degree(b);
                      return da != db ? da > db : a < b;
                    });
  vertices.resize(count);
  return vertices;
}

}  // namespace qbs
