#include "core/updatable_index.h"

#include <algorithm>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// A vertex whose depth a repair changed, with its depth before the batch.
struct DepthChange {
  VertexId v;
  uint32_t old_depth;
};

// Repairs one column's depths on the NEW graph after the batch `net`, in
// two passes over the changed region only, and returns the vertices whose
// depth changed.
//
// Deletes (Ramalingam-Reps style): a vertex keeps its old depth d if some
// neighbour on the new graph kept its old depth d - 1 ("supported").
// Support can only be lost below the deeper endpoint of a deleted parent
// edge, so those endpoints are checked first, in increasing old depth, and
// the children of every vertex that loses support are checked after it.
// Every unchecked or supported vertex has a path of its old length on the
// new graph, so the old depths stay valid upper bounds there.
//
// Then one decrease-only bucket-queue pass restores exactness: the
// vertices that lost support restart unreached and are seeded from their
// reached neighbours, each inserted edge seeds its far endpoint, and
// improvements propagate in depth order. Starting from upper bounds with
// every inconsistent edge seeded, this ends at the exact BFS depths;
// vertices no path reaches end at kUnreachable. A depth the labels cannot
// hold fails the build's QBS_CHECK.
std::vector<DepthChange> RepairColumnDepths(const Graph& g,
                                            const NetChanges& net,
                                            std::vector<uint32_t>* depth_io) {
  auto& depth = *depth_io;
  std::vector<DepthChange> changes;

  // Lost support is marked in the high bit while old depths are still
  // read: a marked vertex then matches no depth d - 1, and depths stay
  // below kInfDist, far from the bit.
  constexpr uint32_t kLost = 0x80000000u;
  std::vector<std::vector<VertexId>> check;  // by old depth
  auto to_check = [&](VertexId v) {
    const uint32_t d = depth[v];
    if (check.size() <= d) check.resize(static_cast<size_t>(d) + 1);
    check[d].push_back(v);
  };
  for (const Edge& e : net.deletes) {
    // A deleted edge joins equal depths (a same-level edge, or both ends
    // unreached) or is a parent edge one level apart.
    if (depth[e.u] != depth[e.v]) to_check(depth[e.u] < depth[e.v] ? e.v : e.u);
  }
  for (size_t d = 1; d < check.size(); ++d) {
    const std::vector<VertexId> level = std::move(check[d]);
    for (const VertexId v : level) {
      if (depth[v] != d) continue;  // already lost
      bool supported = false;
      for (const VertexId w : g.Neighbors(v)) {
        // depth[w] + 1 wraps to 0 for unreached w; d >= 1 here.
        if (depth[w] + 1 == d) {
          supported = true;
          break;
        }
      }
      if (supported) continue;
      changes.push_back({v, static_cast<uint32_t>(d)});
      depth[v] = static_cast<uint32_t>(d) | kLost;
      for (const VertexId w : g.Neighbors(v)) {
        if (depth[w] == d + 1) to_check(w);
      }
    }
  }
  const size_t lost = changes.size();
  for (size_t c = 0; c < lost; ++c) depth[changes[c].v] = kUnreachable;

  std::vector<std::vector<VertexId>> buckets;  // by new depth
  auto relax = [&](VertexId v, uint32_t nd) {
    if (nd >= depth[v]) return;
    QBS_CHECK_LT(nd, static_cast<uint32_t>(kInfDist));
    changes.push_back({v, depth[v]});
    depth[v] = nd;
    if (buckets.size() <= nd) buckets.resize(static_cast<size_t>(nd) + 1);
    buckets[nd].push_back(v);
  };
  for (size_t c = 0; c < lost; ++c) {
    const VertexId v = changes[c].v;
    for (const VertexId w : g.Neighbors(v)) {
      if (depth[w] != kUnreachable) relax(v, depth[w] + 1);
    }
  }
  for (const Edge& e : net.inserts) {
    if (depth[e.u] != kUnreachable) relax(e.v, depth[e.u] + 1);
    if (depth[e.v] != kUnreachable) relax(e.u, depth[e.v] + 1);
  }
  for (size_t d = 0; d < buckets.size(); ++d) {
    const std::vector<VertexId> level = std::move(buckets[d]);
    for (const VertexId u : level) {
      if (depth[u] != d) continue;  // superseded by a later improvement
      for (const VertexId w : g.Neighbors(u)) {
        relax(w, static_cast<uint32_t>(d) + 1);
      }
    }
  }

  // One entry per vertex, its first: the lost vertices were logged before
  // any relaxation, and a relaxed one's first log holds its old depth.
  // A vertex that came back to its old depth did not change.
  std::stable_sort(changes.begin(), changes.end(),
                   [](const DepthChange& a, const DepthChange& b) {
                     return a.v < b.v;
                   });
  size_t out = 0;
  for (size_t c = 0; c < changes.size(); ++c) {
    if (c > 0 && changes[c].v == changes[c - 1].v) continue;
    if (depth[changes[c].v] != changes[c].old_depth) {
      changes[out++] = changes[c];
    }
  }
  changes.resize(out);
  return changes;
}

// Repairs column i after the batch `net` on the new graph: depths first,
// then labels and meta-edges at every vertex whose QL status can have
// changed (see RederiveLabelsAt). Returns true iff anything changed.
bool RepairColumn(const Graph& g, const NetChanges& net,
                  PathLabeling& labeling, LandmarkIndex i,
                  LabelColumnState* state) {
  const std::vector<DepthChange> changes =
      RepairColumnDepths(g, net, &state->depth);
  const std::vector<uint32_t>& depth = state->depth;
  std::vector<VertexId> candidates;
  for (const std::vector<Edge>* edits : {&net.inserts, &net.deletes}) {
    for (const Edge& e : *edits) {
      candidates.push_back(e.u);
      candidates.push_back(e.v);
    }
  }
  for (const DepthChange& c : changes) {
    candidates.push_back(c.v);
    // Old children lost a parent, new children gained one. Comparing the
    // OLD depth to the children's new depths is enough: an old child whose
    // depth changed is a candidate already.
    for (const uint32_t parent : {c.old_depth, depth[c.v]}) {
      if (parent == kUnreachable) continue;
      for (const VertexId w : g.Neighbors(c.v)) {
        if (depth[w] == parent + 1) candidates.push_back(w);
      }
    }
  }
  const bool relabelled = RederiveLabelsAt(g, labeling, i, candidates, state);
  return relabelled || !changes.empty();
}

// Rebuilds the meta-graph from the per-column meta lists. Each meta-edge
// is discovered from both endpoint columns; every column is exact, so the
// two copies agree and collapse into one.
MetaGraph RebuildMeta(uint32_t k, const UpdatableState& state) {
  std::vector<MetaEdge> all;
  for (const auto& col : state.columns) {
    for (const MetaEdge& e : col.meta) {
      all.push_back(e.a <= e.b ? e : MetaEdge{e.b, e.a, e.weight});
    }
  }
  std::sort(all.begin(), all.end());
  MetaGraph meta(k);
  for (size_t idx = 0; idx < all.size(); ++idx) {
    if (idx > 0 && all[idx].a == all[idx - 1].a &&
        all[idx].b == all[idx - 1].b) {
      continue;
    }
    meta.AddEdge(all[idx].a, all[idx].b, all[idx].weight);
  }
  meta.Finalize();
  return meta;
}

}  // namespace

void InitUpdatableState(const Graph& g, PathLabeling& labeling,
                        UpdatableState* state, size_t num_threads) {
  const uint32_t k = labeling.num_landmarks();
  state->columns.assign(k, {});
  if (k == 0) return;
  const size_t workers = std::min<size_t>(EffectiveThreads(num_threads), k);
  ParallelFor(k, workers, [&](size_t i, size_t) {
    RebuildLabelColumn(g, labeling, static_cast<LandmarkIndex>(i),
                       &state->columns[i]);
  });
}

UpdateStats ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                               PathLabeling* labeling, MetaGraph* meta,
                               UpdatableState* state) {
  UpdateStats stats;
  stats.applied_inserts = net.inserts.size();
  stats.applied_deletes = net.deletes.size();
  const uint32_t k = labeling->num_landmarks();
  QBS_CHECK_EQ(state->columns.size(), static_cast<size_t>(k));
  if (k == 0) {
    *meta = RebuildMeta(0, *state);
    return stats;
  }
  const size_t workers = std::min<size_t>(EffectiveThreads(0), k);
  // Columns are independent (Lemma 5.2), and every write — label column,
  // LabelColumnState — is column-private.
  std::vector<uint8_t> changed(k, 0);
  ParallelFor(k, workers, [&](size_t i, size_t) {
    changed[i] = RepairColumn(new_graph, net, *labeling,
                              static_cast<LandmarkIndex>(i),
                              &state->columns[i]);
  });
  for (uint32_t i = 0; i < k; ++i) stats.repaired_columns += changed[i];

  *meta = RebuildMeta(k, *state);
  return stats;
}

}  // namespace qbs
