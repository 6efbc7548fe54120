#include "core/updatable_index.h"

#include <algorithm>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

enum class ColumnImpact : uint8_t {
  kUnaffected = 0,  // nothing in this batch touches the column
  kRepair = 1,      // decrease-only depth repair + rederivation suffices
  kRebuild = 2,     // a parent edge died: full column rebuild
};

// Classifies column i against its OLD exact depths (see the header for
// the per-edge rules and why they are sound for whole batches: every
// individually-"unaffected" edit provably changes no depth, label, or
// meta-edge, so their composition changes none either).
ColumnImpact ClassifyColumn(const LabelColumnState& state,
                            const NetChanges& net) {
  const auto& depth = state.depth;
  for (const Edge& e : net.deletes) {
    // An existing edge has |du - dv| <= 1 with both ends reachable or
    // neither; anything else (defensively) rebuilds too. Same-level
    // deletes (both unreachable included) remove no parent edge.
    if (depth[e.u] != depth[e.v]) return ColumnImpact::kRebuild;
  }
  for (const Edge& e : net.inserts) {
    // Same-level inserts (both unreachable included) add no parent edge
    // and shorten no distance. Otherwise distances shrink and/or a new
    // parent edge appears — both decrease-only, hence repairable.
    if (depth[e.u] != depth[e.v]) return ColumnImpact::kRepair;
  }
  return ColumnImpact::kUnaffected;
}

// Decrease-only multi-source partial BFS on the NEW graph: seeds every
// inserted edge's deeper endpoint from the shallower one, then propagates
// improvements in depth order through a bucket queue. Exact for
// insert-only depth change (a vertex whose distance shrinks lies past an
// inserted edge; induction on the new distance), and for mixed batches
// whose deletes are all same-level under the old depths (those deletes
// change no distance, so "old depths on the new graph" is a valid
// overestimate to relax from). Touches only the shrinking region — the
// bounded partial BFS of the ROADMAP item.
void RepairColumnDepths(const Graph& g, const std::vector<Edge>& inserts,
                        std::vector<uint32_t>* depth_io) {
  auto& depth = *depth_io;
  std::vector<std::vector<VertexId>> buckets;
  auto relax = [&](VertexId v, uint32_t nd) {
    if (nd >= depth[v]) return;
    depth[v] = nd;
    if (buckets.size() <= nd) buckets.resize(nd + 1);
    buckets[nd].push_back(v);
  };
  for (const Edge& e : inserts) {
    if (depth[e.u] != kUnreachable) relax(e.v, depth[e.u] + 1);
    if (depth[e.v] != kUnreachable) relax(e.u, depth[e.v] + 1);
  }
  for (size_t d = 0; d < buckets.size(); ++d) {
    for (size_t idx = 0; idx < buckets[d].size(); ++idx) {
      const VertexId u = buckets[d][idx];
      if (depth[u] != d) continue;  // superseded by a later improvement
      for (VertexId w : g.Neighbors(u)) {
        relax(w, static_cast<uint32_t>(d) + 1);
      }
    }
  }
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
                               UpdatableState* state,
                               const UpdateOptions& options) {
  UpdateStats stats;
  stats.applied_inserts = net.inserts.size();
  stats.applied_deletes = net.deletes.size();
  const uint32_t k = labeling->num_landmarks();
  QBS_CHECK_EQ(state->columns.size(), static_cast<size_t>(k));
  if (k == 0) {
    *meta = RebuildMeta(0, *state);
    return stats;
  }
  const size_t workers =
      std::min<size_t>(EffectiveThreads(options.num_threads), k);

  // Phase 1: classify every column against its old depths. Read-only
  // over the pre-edit state, so no ordering hazards with phase 2.
  std::vector<ColumnImpact> impact(k, ColumnImpact::kUnaffected);
  ParallelFor(k, workers, [&](size_t i, size_t) {
    impact[i] = ClassifyColumn(state->columns[i], net);
  });

  // Phase 2: repair / rebuild affected columns against the new graph.
  // Columns are independent (Lemma 5.2), and every write — label column,
  // LabelColumnState — is column-private.
  ParallelFor(k, workers, [&](size_t i, size_t) {
    const auto li = static_cast<LandmarkIndex>(i);
    switch (impact[i]) {
      case ColumnImpact::kUnaffected:
        break;
      case ColumnImpact::kRepair:
        RepairColumnDepths(new_graph, net.inserts, &state->columns[i].depth);
        RederiveLabelColumn(new_graph, *labeling, li, &state->columns[i]);
        break;
      case ColumnImpact::kRebuild:
        RebuildLabelColumn(new_graph, *labeling, li, &state->columns[i]);
        break;
    }
  });
  for (uint32_t i = 0; i < k; ++i) {
    if (impact[i] == ColumnImpact::kRepair) ++stats.repaired_columns;
    if (impact[i] == ColumnImpact::kRebuild) ++stats.rebuilt_columns;
  }

  *meta = RebuildMeta(k, *state);
  return stats;
}

}  // namespace qbs
