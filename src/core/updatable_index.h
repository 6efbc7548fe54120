// Incremental maintenance of the QbS labelling scheme under edge edits.
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), so dynamism
// reduces to: given a batch of net edge changes, bring every landmark
// column — labels and meta-edges — to exactly what a from-scratch build on
// the new graph would produce. The machinery here does that column by
// column:
//
//   1. Detection. Each column keeps its exact BFS depth array
//      (LabelColumnState, captured at EnableUpdates / rebuild time). A
//      column's labels and meta-edges are a function of its depths and of
//      its parent edges (edges joining depth d - 1 to depth d), so an
//      edited edge (u, v) can only affect column r if the stored depths
//      say so:
//        d(u) == d(v) (both unreachable included) — insert or delete, no
//          distance and no parent edge changes: the column is untouched;
//        insert, otherwise — one end unreachable or |d(u)-d(v)| >= 2:
//          distances shrink; |diff| == 1: a new parent edge (QL changes) —
//          both decrease-only, hence repairable;
//        delete, otherwise (|d(u)-d(v)| == 1) — a parent edge died,
//          distances can grow: the column needs a full rebuild.
//   2. Repair (insert-affected, no parent-edge deletes): a decrease-only
//      multi-source partial BFS on the new graph, seeded from the inserted
//      edges' shallower endpoints, updates the depth array to exact new
//      distances; RederiveLabelColumn then recomputes QL, labels, and
//      meta-edges from those depths — bit-identical to a fresh BFS,
//      because every derived quantity is a function of exact depths.
//   3. Rebuild (a parent edge died): a full column rebuild
//      (RebuildLabelColumn) in the same batch.
//
// Every column is exact when ApplyNetToLabeling returns, so the index
// answers every query as a from-scratch build on the new graph would. The
// meta-graph is rebuilt from the per-column meta lists each batch (|R|^2
// edges — negligible).
//
// Concurrency: nothing here takes a lock, by design. ApplyUpdates mutates
// the labelling in place and is serialized by the caller — the server
// holds its index_mu_ WriterLock (rank kIndex) across the whole batch,
// and the parallel per-column repair it schedules on the thread pool is
// legal under that lock precisely because the pool ranks sit above
// kIndex. See docs/ARCHITECTURE.md §12 (Concurrency contracts).

#ifndef QBS_CORE_UPDATABLE_INDEX_H_
#define QBS_CORE_UPDATABLE_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/meta_graph.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace qbs {

struct UpdateOptions {
  /// Column repair/rebuild threads: 0 = all hardware threads.
  size_t num_threads = 0;
};

struct UpdateStats {
  /// Net edge changes actually applied to the graph.
  uint64_t applied_inserts = 0;
  uint64_t applied_deletes = 0;
  /// Script entries that changed nothing (insert of an existing edge,
  /// delete of an absent one) and malformed entries (self-loop,
  /// out-of-range endpoint), skipped.
  uint64_t noop_updates = 0;
  uint64_t invalid_updates = 0;
  /// Columns repaired by partial BFS + rederivation (insert-affected).
  uint32_t repaired_columns = 0;
  /// Columns rebuilt from scratch (a parent edge was deleted).
  uint32_t rebuilt_columns = 0;

  uint64_t AppliedTotal() const { return applied_inserts + applied_deletes; }
};

/// Per-column maintenance state: the exact BFS depths + meta-edges of every
/// landmark column (LabelColumnState). Owned by QbsIndex once
/// EnableUpdates() has run.
struct UpdatableState {
  std::vector<LabelColumnState> columns;
};

/// Initializes `state` for (g, labeling): runs one labelling BFS per column
/// to capture exact depths and meta-edges, rewriting the labels
/// bit-identically in passing (so it is safe after LoadFromFile too).
/// Costs about one labelling build.
void InitUpdatableState(const Graph& g, PathLabeling& labeling,
                        UpdatableState* state, size_t num_threads);

/// Applies an already-computed net change set to the labelling. `new_graph`
/// must be the post-edit graph (ApplyNetChanges); detection reads the OLD
/// depths still held in `state`. Repairs or rebuilds every
/// affected column in parallel, rewrites the meta-graph, and updates
/// `state` in place. Returns the column-level stats (the applied/noop
/// script counters are the caller's, from ComputeNetChanges).
UpdateStats ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                               PathLabeling* labeling, MetaGraph* meta,
                               UpdatableState* state,
                               const UpdateOptions& options);

}  // namespace qbs

#endif  // QBS_CORE_UPDATABLE_INDEX_H_
