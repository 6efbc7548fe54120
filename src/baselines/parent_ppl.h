// ParentPPL — pruned path labelling with parent sets (§3.2).
//
// Extends PPL label entries (r, δ_vr) to triples (r, δ_vr, W_vr), where
// W_vr is the set of *all* neighbours of v one step closer to r — following
// the technique of [Akiba et al. 2013] generalized from one parent to all
// parents so that every shortest path is recoverable. Space grows to
// O(|V||E|) and construction slows down further (the paper's Table 2 shows
// ParentPPL running out of time/memory on 10 of 12 datasets), in exchange
// for faster SPG queries on small graphs.
//
// The index is a PplIndex plus a parent table aligned with its labels.
// Build runs PplIndex::Build, then one parent pass grouped by landmark
// rank: for rank k it loads the landmark's label entries of rank <= k into
// a dense view, and keeps, for each rank-k entry (k, d) of a vertex v, the
// neighbours w whose label entries of rank <= k give d(r_k, w) = d - 1.
// Those entries are the labels as they stood right after PPL's pruned BFS
// from r_k, which covers every pair (r_k, w) exactly, so the sets are
// complete; the pruned BFS depths alone would miss parents that were
// themselves pruned.
//
// Budgets: the time budget covers the PPL build plus the parent pass. The
// memory cap (PplBuildOptions::max_label_entries) counts label entries plus
// parents and is checked once per rank of the pass, so a ParentPPL that
// only overflows on its parents reports kMemoryBudgetExceeded after the
// PPL build has finished.

#ifndef QBS_BASELINES_PARENT_PPL_H_
#define QBS_BASELINES_PARENT_PPL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/ppl.h"
#include "graph/graph.h"
#include "graph/spg.h"

namespace qbs {

class ParentPplIndex {
 public:
  static std::optional<ParentPplIndex> Build(
      const Graph& g, const PplBuildOptions& options = {},
      BuildStatus* status = nullptr);

  ShortestPathGraph QuerySpg(VertexId u, VertexId v) const;

  // The labelling the parent sets annotate.
  const PplIndex& ppl() const { return ppl_; }

  // W of ppl().Label(v)[j]: the neighbours of v one step closer to that
  // entry's landmark, i.e. the next hops of all shortest paths toward it.
  // Empty for v's own entry.
  std::span<const VertexId> Parents(VertexId v, size_t j) const {
    const ParentRange& range = ranges_[first_entry_[v] + j];
    return {parents_.data() + range.begin, range.size};
  }

  uint64_t NumParents() const { return parents_.size(); }
  // Entry bytes + parent bytes (parents dominate: the paper's Table 3 shows
  // roughly 2x the PPL footprint).
  uint64_t SizeBytes() const {
    return ppl_.SizeBytes() + NumParents() * sizeof(VertexId);
  }

 private:
  // One entry's parents: parents_[begin, begin + size). The pass fills
  // parents_ rank by rank, so an entry's range is not where its label
  // position would put it.
  struct ParentRange {
    uint64_t begin = 0;
    uint32_t size = 0;
  };

  explicit ParentPplIndex(PplIndex ppl) : ppl_(std::move(ppl)) {}

  // Emits all shortest paths from x to the landmark with rank `rank`,
  // preferring stored parent walks, falling back to decomposition when a
  // pruned label leaves no entry.
  void Walk(VertexId x, uint32_t rank, std::vector<Edge>* edges,
            std::unordered_set<uint64_t>* visited_pairs) const;
  void Expand(VertexId u, VertexId v, std::vector<Edge>* edges,
              std::unordered_set<uint64_t>* visited_pairs) const;

  PplIndex ppl_;
  // Entries are numbered vertex by vertex: Label(v)[j] is entry
  // first_entry_[v] + j.
  std::vector<uint64_t> first_entry_;
  std::vector<ParentRange> ranges_;  // entry -> its parents
  std::vector<VertexId> parents_;
};

}  // namespace qbs

#endif  // QBS_BASELINES_PARENT_PPL_H_
