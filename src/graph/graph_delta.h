// Edit scripts against an immutable CSR Graph.
//
// The Graph class is deliberately immutable (every index and search hot
// path leans on its packed, sorted CSR arrays), so dynamism enters through
// a batch layer instead of per-edge mutation: callers record an ordered
// script of edge insertions and deletions in a GraphDelta, the net effect
// against a concrete base graph is computed with set semantics
// (ComputeNetChanges), and a fresh CSR is spliced once per batch
// (ApplyNetChanges). QbsIndex::ApplyUpdates drives this to repair its
// labelling incrementally — see core/updatable_index.h.
//
// Script semantics (applied in order against the evolving edge set):
//   - inserting an edge that is already present is a no-op (counted);
//   - deleting an edge that is absent is a no-op (counted);
//   - self-loops and out-of-range endpoints are invalid (counted, skipped);
//   - insert-then-delete (or the reverse) of the same edge cancels out.
// The result is the final net insert/delete sets relative to the base
// graph — the only thing index maintenance needs.

#ifndef QBS_GRAPH_GRAPH_DELTA_H_
#define QBS_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace qbs {

enum class EdgeOp : uint8_t {
  kInsert = 0,
  kDelete = 1,
};

/// One scripted edit. Endpoints are kept in the order given (normalization
/// happens during net-change computation so wire round trips are faithful).
struct EdgeUpdate {
  EdgeOp op = EdgeOp::kInsert;
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const EdgeUpdate& a, const EdgeUpdate& b) {
    return a.op == b.op && a.u == b.u && a.v == b.v;
  }
};

/// An ordered batch of edge edits. Purely a recording structure — nothing
/// is validated until the delta meets a concrete graph in
/// ComputeNetChanges.
class GraphDelta {
 public:
  GraphDelta() = default;

  void Insert(VertexId u, VertexId v) {
    updates_.push_back({EdgeOp::kInsert, u, v});
  }
  void Delete(VertexId u, VertexId v) {
    updates_.push_back({EdgeOp::kDelete, u, v});
  }
  void Add(const EdgeUpdate& update) { updates_.push_back(update); }

  const std::vector<EdgeUpdate>& updates() const { return updates_; }
  size_t size() const { return updates_.size(); }
  bool empty() const { return updates_.empty(); }
  void Clear() { updates_.clear(); }

 private:
  std::vector<EdgeUpdate> updates_;
};

/// Parses one line of an edit script (`qbs update --file`): "i u v" or
/// "insert u v" appends an insert to *delta, "d u v" or "delete u v" a
/// delete. A blank line or a '#' comment appends nothing. Anything after
/// the third token joins v's, so "i 1 2 junk" is no vertex id. Returns
/// false with *error set, and *delta untouched, on a line that is none of
/// these. Ids are only parsed here: ComputeNetChanges judges them.
bool ParseEditLine(std::string_view line, GraphDelta* delta,
                   std::string* error);

/// The net effect of a GraphDelta against a base graph: the edges that end
/// up present but weren't (inserts) and absent but were (deletes), both
/// normalized and sorted, plus bookkeeping on script entries that changed
/// nothing.
struct NetChanges {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
  /// Inserts of already-present edges / deletes of absent edges, evaluated
  /// in script order against the evolving edge set.
  uint64_t noop_inserts = 0;
  uint64_t noop_deletes = 0;
  /// Self-loops or out-of-range endpoints, skipped.
  uint64_t invalid = 0;

  bool EmptyNet() const { return inserts.empty() && deletes.empty(); }
};

/// Evaluates `delta` in script order against `base` and returns the net
/// insert/delete sets. Never fails: malformed entries are counted in
/// `invalid` and skipped.
NetChanges ComputeNetChanges(const Graph& base, const GraphDelta& delta);

/// Materializes the updated graph: base edges minus `net.deletes` plus
/// `net.inserts`, same vertex count. Splices the CSR: untouched vertices'
/// lists are copied as blocks and each edited vertex's sorted list is
/// merged with its sorted edits, so the cost is one O(|V| + |E|) copy plus
/// O(k log k) for k edits — nothing is re-sorted. Bit-identical to
/// Graph::FromEdges on the edited edge list. Every delete must be an edge
/// of `base` and every insert a non-edge (as ComputeNetChanges returns
/// them; CHECK-enforced, with FromCsr's invariant checks on the result).
Graph ApplyNetChanges(const Graph& base, const NetChanges& net);

}  // namespace qbs

#endif  // QBS_GRAPH_GRAPH_DELTA_H_
