#include "graph/graph_delta.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace qbs {

NetChanges ComputeNetChanges(const Graph& base, const GraphDelta& delta) {
  NetChanges net;
  const VertexId n = base.NumVertices();
  // Presence of every touched (normalized) edge relative to the evolving
  // edge set; untouched edges keep their base presence. A map keeps the
  // evaluation O(k log k) in the script length k, independent of |E|.
  std::map<Edge, bool> touched;
  for (const EdgeUpdate& upd : delta.updates()) {
    if (upd.u == upd.v || upd.u >= n || upd.v >= n) {
      ++net.invalid;
      continue;
    }
    const Edge e = Edge(upd.u, upd.v).Normalized();
    auto it = touched.find(e);
    const bool present =
        it != touched.end() ? it->second : base.HasEdge(e.u, e.v);
    if (upd.op == EdgeOp::kInsert) {
      if (present) {
        ++net.noop_inserts;
      } else {
        touched[e] = true;
      }
    } else {
      if (!present) {
        ++net.noop_deletes;
      } else {
        touched[e] = false;
      }
    }
  }
  for (const auto& [e, present] : touched) {
    const bool in_base = base.HasEdge(e.u, e.v);
    if (present && !in_base) net.inserts.push_back(e);
    if (!present && in_base) net.deletes.push_back(e);
  }
  // std::map iteration is already sorted; keep the contract explicit.
  std::sort(net.inserts.begin(), net.inserts.end());
  std::sort(net.deletes.begin(), net.deletes.end());
  return net;
}

Graph ApplyNetChanges(const Graph& base, const NetChanges& net) {
  // Both directions of every edit, sorted by (source, target): the edits
  // of vertex v form one run, in the order they merge into v's list.
  struct HalfEdge {
    VertexId from;
    VertexId to;
    bool insert;
    bool operator<(const HalfEdge& o) const {
      return from != o.from ? from < o.from : to < o.to;
    }
  };
  std::vector<HalfEdge> halves;
  halves.reserve(2 * (net.inserts.size() + net.deletes.size()));
  for (const Edge& e : net.inserts) {
    halves.push_back({e.u, e.v, true});
    halves.push_back({e.v, e.u, true});
  }
  for (const Edge& e : net.deletes) {
    halves.push_back({e.u, e.v, false});
    halves.push_back({e.v, e.u, false});
  }
  std::sort(halves.begin(), halves.end());

  const VertexId n = base.NumVertices();
  if (n == 0) return Graph::FromEdges(0, {});  // no vertex, so no edit
  const auto old_off = base.RawOffsets();
  const auto old_adj = base.RawAdjacency();
  std::vector<uint64_t> offsets(old_off.size());
  std::vector<VertexId> adjacency;
  adjacency.reserve(old_adj.size() + 2 * net.inserts.size());
  // Copies the untouched vertices [from, to) as one block: their lists are
  // unchanged and their offsets shift by what the edits so far added.
  VertexId copied = 0;
  auto copy_until = [&](VertexId to) {
    const uint64_t start = adjacency.size();
    adjacency.insert(adjacency.end(), old_adj.begin() + old_off[copied],
                     old_adj.begin() + old_off[to]);
    for (VertexId v = copied; v < to; ++v) {
      offsets[v + 1] = start + (old_off[v + 1] - old_off[copied]);
    }
    copied = to;
  };
  for (size_t h = 0; h < halves.size();) {
    const VertexId v = halves[h].from;
    copy_until(v);
    // Merge v's sorted list with its sorted run of edits.
    const auto nbrs = base.Neighbors(v);
    auto it = nbrs.begin();
    for (; h < halves.size() && halves[h].from == v; ++h) {
      const HalfEdge& edit = halves[h];
      while (it != nbrs.end() && *it < edit.to) adjacency.push_back(*it++);
      if (edit.insert) {
        adjacency.push_back(edit.to);
      } else {
        QBS_CHECK(it != nbrs.end() && *it == edit.to);  // deletes are present
        ++it;
      }
    }
    adjacency.insert(adjacency.end(), it, nbrs.end());
    offsets[v + 1] = adjacency.size();
    copied = v + 1;
  }
  copy_until(n);
  return Graph::FromCsr(std::move(offsets), std::move(adjacency));
}

}  // namespace qbs
