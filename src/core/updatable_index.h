// Incremental maintenance of the QbS labelling scheme under edge edits.
//
// The labelling is uniquely determined by (G, R) (Lemma 5.2), so dynamism
// reduces to: given a batch of net edge changes, bring every landmark
// column — labels and meta-edges — to exactly what a from-scratch build on
// the new graph would produce, at a cost proportional to what the batch
// changes rather than to |V| + |E|. No per-column state is stored: a
// column's old BFS depths follow from the pre-edit scheme itself
// (DerivedDepth, O(|R|) per vertex), and its old meta-edges are M's edges
// at its landmark. A column's labels and meta-edges are a function of its
// depths and of its parent edges (edges joining depth d - 1 to depth d),
// so every column is repaired in parallel, over the changed region only
// (core/updatable_index.cc): an affected-subtree pass for the deletes in
// the style of Ramalingam and Reps, then one bucket queue by depth that,
// like the build's BFS (Algorithm 2), both lowers depths and re-derives
// each popped vertex's label or meta-edge from its final parents. QL
// status is read back from the labels (the root, or a non-landmark with a
// label). An edge between equal depths (both unreached included) changes
// nothing.
//
// One rule keeps the parallel repair sound: every read sees the pre-edit
// L and M. A column reads the depths and labels it has changed from a
// per-call overlay of its own, and everything else from (L, M), which no
// column writes. The label writes and the new M (AssembleMetaGraph, as
// the build assembles it) land only after every column is done. The graph
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

/// Applies an already-computed net change set to the labelling. `new_graph`
/// must be the post-edit graph (ApplyNetChanges); `labeling` and `meta`
/// must still be the pre-edit scheme, from which the repair reads the old
/// depths. Repairs every column in parallel on all hardware threads, then
/// writes the repaired labels and reassembles M (AssembleMetaGraph).
/// Returns the number of columns whose depths, labels or meta-edges
/// changed.
uint32_t ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                            PathLabeling* labeling, MetaGraph* meta);

}  // namespace qbs

#endif  // QBS_CORE_UPDATABLE_INDEX_H_
