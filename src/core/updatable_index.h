// Incremental maintenance of the QbS labelling scheme under edge edits.
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), so dynamism
// reduces to: given a batch of net edge changes, bring every landmark
// column — labels and meta-edges — to exactly what a from-scratch build on
// the new graph would produce, at a cost proportional to what the batch
// changes rather than to |V| + |E|. Each column keeps its exact BFS depth
// array (LabelColumnState, captured by EnableUpdates). A column's labels
// and meta-edges are a function of those depths and of its parent edges
// (edges joining depth d - 1 to depth d), so every column is repaired in
// place, in parallel, in two steps:
//
//   1. Depths. Deletes first, an affected-subtree pass in the style of
//      Ramalingam and Reps: only the subtree below a deleted parent edge
//      can lose its depth, and a vertex keeps it when a neighbour on the
//      new graph kept depth d - 1. The vertices that lose support are
//      recomputed together with the inserts' decrease-only repair, one
//      bucket-queue pass from the unaffected boundary in depth order. An
//      edge between equal depths (both unreached included) is neither a
//      parent edge nor a shortcut, so it changes nothing here.
//   2. Labels. QL status is read back from the labels themselves (the
//      root, or a non-landmark with a label), so no extra state is kept.
//      Labels and meta-edges are re-derived in new-depth order only where
//      they can change: at vertices whose depth changed, at the endpoints
//      of every edited edge, at the old and new children of every vertex
//      whose depth changed, and below every vertex that joins or leaves
//      QL. Every other vertex has the same depth and the same parents, so
//      the same label.
//
// Every column is exact when ApplyNetToLabeling returns. The meta-graph
// is then assembled from the per-column meta lists exactly as the build
// assembles it (AssembleMetaGraph; |R|^2 edges — negligible). The graph
// is spliced (ApplyNetChanges) by the caller, which then derives Δ and the
// landmark adjacency bits from the new scheme the way a build does, so
// the index answers every query as a from-scratch build on the new graph
// would. G⁻ needs no splice: searchers search the edited graph itself
// with the landmarks blocked, and R never changes.
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

struct UpdateStats {
  /// Net edge changes actually applied to the graph.
  uint64_t applied_inserts = 0;
  uint64_t applied_deletes = 0;
  /// Script entries that changed nothing (insert of an existing edge,
  /// delete of an absent one) and malformed entries (self-loop,
  /// out-of-range endpoint), skipped.
  uint64_t noop_updates = 0;
  uint64_t invalid_updates = 0;
  /// Columns whose depths, labels or meta-edges the batch changed.
  uint32_t repaired_columns = 0;
  /// Always 0: every column is repaired in place, none is rebuilt. Kept
  /// because bench_e2e (frozen by BENCHMARK.json) and the update response
  /// (server/protocol.h) carry it.
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
/// on `num_threads` threads (ParallelFor's convention) to capture exact
/// depths and meta-edges, rewriting the labels bit-identically in passing
/// (so it is safe after LoadFromFile too). Costs about one labelling
/// build.
void InitUpdatableState(const Graph& g, PathLabeling& labeling,
                        UpdatableState* state, size_t num_threads);

/// Applies an already-computed net change set to the labelling. `new_graph`
/// must be the post-edit graph (ApplyNetChanges); the repair starts from
/// the OLD depths still held in `state`. Repairs every column in parallel
/// on all hardware threads, updates `state` in place and reassembles the
/// meta-graph from it (AssembleMetaGraph). Returns the number of columns
/// whose depths, labels or meta-edges changed.
uint32_t ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                            PathLabeling* labeling, MetaGraph* meta,
                            UpdatableState* state);

}  // namespace qbs

#endif  // QBS_CORE_UPDATABLE_INDEX_H_
