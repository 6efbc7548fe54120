#include "core/updatable_index.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Column i's view of the index during its repair: a vertex's depth is
// derived from the pre-edit (L, M) on first touch, and a label the repair
// has not written reads through to L. Dense slots, one array per worker,
// reused across the columns that worker repairs and reset through the
// touched list.
struct ColumnOverlay {
  struct Slot {  // all-zero by default, so a fresh array is one memset
    uint32_t depth = 0;
    DistT label = 0;
    bool touched = false;
    bool label_set = false;
  };
  const PathLabeling* labeling = nullptr;
  const uint32_t* meta_row = nullptr;  // M.DistanceRow(i)
  LandmarkIndex i = 0;
  std::vector<Slot> slots;
  std::vector<VertexId> touched;

  Slot& At(VertexId v) {
    Slot& s = slots[v];
    if (!s.touched) {
      s.depth = DerivedDepth(*labeling, meta_row, v);
      s.touched = true;
      touched.push_back(v);
    }
    return s;
  }
  uint32_t Depth(VertexId v) { return At(v).depth; }
  void SetDepth(VertexId v, uint32_t d) { At(v).depth = d; }
  DistT Label(VertexId v) const {
    return slots[v].label_set ? slots[v].label : labeling->Get(v, i);
  }
  void SetLabel(VertexId v, DistT d) {
    Slot& s = At(v);
    s.label = d;
    s.label_set = true;
  }
};

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
                                            ColumnOverlay& col) {
  std::vector<DepthChange> changes;

  // Lost support is marked in the high bit while old depths are still
  // read: a marked vertex then matches no depth d - 1, and depths stay
  // below kInfDist, far from the bit.
  constexpr uint32_t kLost = 0x80000000u;
  std::vector<std::vector<VertexId>> check;  // by old depth
  auto to_check = [&](VertexId v) {
    const uint32_t d = col.Depth(v);
    if (check.size() <= d) check.resize(static_cast<size_t>(d) + 1);
    check[d].push_back(v);
  };
  for (const Edge& e : net.deletes) {
    // A deleted edge joins equal depths (a same-level edge, or both ends
    // unreached) or is a parent edge one level apart.
    if (col.Depth(e.u) != col.Depth(e.v)) {
      to_check(col.Depth(e.u) < col.Depth(e.v) ? e.v : e.u);
    }
  }
  for (size_t d = 1; d < check.size(); ++d) {
    const std::vector<VertexId> level = std::move(check[d]);
    for (const VertexId v : level) {
      if (col.Depth(v) != d) continue;  // already lost
      bool supported = false;
      for (const VertexId w : g.Neighbors(v)) {
        // Depth(w) + 1 wraps to 0 for unreached w; d >= 1 here.
        if (col.Depth(w) + 1 == d) {
          supported = true;
          break;
        }
      }
      if (supported) continue;
      changes.push_back({v, static_cast<uint32_t>(d)});
      col.SetDepth(v, static_cast<uint32_t>(d) | kLost);
      for (const VertexId w : g.Neighbors(v)) {
        if (col.Depth(w) == d + 1) to_check(w);
      }
    }
  }
  const size_t lost = changes.size();
  for (size_t c = 0; c < lost; ++c) col.SetDepth(changes[c].v, kUnreachable);

  std::vector<std::vector<VertexId>> buckets;  // by new depth
  auto relax = [&](VertexId v, uint32_t nd) {
    const uint32_t had = col.Depth(v);
    if (nd >= had) return;
    QBS_CHECK_LT(nd, static_cast<uint32_t>(kInfDist));
    changes.push_back({v, had});
    col.SetDepth(v, nd);
    if (buckets.size() <= nd) buckets.resize(static_cast<size_t>(nd) + 1);
    buckets[nd].push_back(v);
  };
  for (size_t c = 0; c < lost; ++c) {
    const VertexId v = changes[c].v;
    for (const VertexId w : g.Neighbors(v)) {
      if (col.Depth(w) != kUnreachable) relax(v, col.Depth(w) + 1);
    }
  }
  for (const Edge& e : net.inserts) {
    if (col.Depth(e.u) != kUnreachable) relax(e.v, col.Depth(e.u) + 1);
    if (col.Depth(e.v) != kUnreachable) relax(e.u, col.Depth(e.v) + 1);
  }
  for (size_t d = 0; d < buckets.size(); ++d) {
    const std::vector<VertexId> level = std::move(buckets[d]);
    for (const VertexId u : level) {
      if (col.Depth(u) != d) continue;  // superseded by a later improvement
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
    if (col.Depth(changes[c].v) != changes[c].old_depth) {
      changes[out++] = changes[c];
    }
  }
  changes.resize(out);
  return changes;
}

// Re-derives the column's labels and meta-edges (`meta`) at `candidates`
// (duplicates allowed), given depths already exact on `g`, in depth order
// with the build's rule: a vertex is QL iff some depth-(d-1) neighbour is
// QL. A vertex that joins or leaves QL adds its children. Returns true iff
// a label or meta-edge changed.
bool RederiveLabelsAt(const Graph& g, const std::vector<VertexId>& candidates,
                      ColumnOverlay& col, std::vector<MetaEdge>* meta) {
  const PathLabeling& labeling = *col.labeling;
  const LandmarkIndex i = col.i;
  const VertexId root = labeling.LandmarkVertex(i);
  auto in_ql = [&](VertexId w) {
    return w == root || (!labeling.IsLandmark(w) && col.Label(w) != kInfDist);
  };
  // Candidates by new depth. A vertex's QL status depends only on its
  // depth-(d-1) parents, so re-deriving level by level reads every parent
  // after its own re-derivation.
  std::vector<std::vector<VertexId>> levels;
  std::vector<VertexId> unreached;
  auto enqueue = [&](VertexId v) {
    const uint32_t d = col.Depth(v);
    if (d == kUnreachable) {
      unreached.push_back(v);
      return;
    }
    if (levels.size() <= d) levels.resize(static_cast<size_t>(d) + 1);
    levels[d].push_back(v);
  };
  for (const VertexId v : candidates) enqueue(v);

  bool changed = false;
  // Replaces the meta-edge to `rank` by weight d, or removes it when d is
  // kUnreachable.
  auto set_meta = [&](LandmarkIndex rank, uint32_t d) {
    const auto old =
        std::find_if(meta->begin(), meta->end(),
                     [&](const MetaEdge& e) { return e.b == rank; });
    const uint32_t had = old == meta->end() ? kUnreachable : old->weight;
    if (had == d) return;
    changed = true;
    if (old != meta->end()) meta->erase(old);
    if (d != kUnreachable) meta->push_back(MetaEdge{i, rank, d});
  };

  // Depth 0 is the root alone, QL by definition.
  for (size_t d = 1; d < levels.size(); ++d) {
    // Moved out: enqueueing children may grow `levels`.
    std::vector<VertexId> level = std::move(levels[d]);
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    for (const VertexId v : level) {
      bool via_l = false;
      for (const VertexId w : g.Neighbors(v)) {
        // Depth(w) + 1 wraps to 0 for unreached w; d >= 1 here.
        if (col.Depth(w) + 1 == d && in_ql(w)) {
          via_l = true;
          break;
        }
      }
      const int32_t rank = labeling.LandmarkRank(v);
      if (rank >= 0) {
        set_meta(static_cast<LandmarkIndex>(rank),
                 via_l ? static_cast<uint32_t>(d) : kUnreachable);
        continue;
      }
      const DistT want = via_l ? static_cast<DistT>(d) : kInfDist;
      const DistT had = col.Label(v);
      if (had == want) continue;
      changed = true;
      col.SetLabel(v, want);
      if ((had != kInfDist) != via_l) {
        // v joined or left QL: its children may follow.
        for (const VertexId w : g.Neighbors(v)) {
          if (col.Depth(w) == d + 1) enqueue(w);
        }
      }
    }
  }
  for (const VertexId v : unreached) {
    const int32_t rank = labeling.LandmarkRank(v);
    if (rank >= 0) {
      set_meta(static_cast<LandmarkIndex>(rank), kUnreachable);
    } else if (col.Label(v) != kInfDist) {
      changed = true;
      col.SetLabel(v, kInfDist);
    }
  }
  return changed;
}

// What the repair of one column hands back for the write-back.
struct ColumnRepair {
  std::vector<std::pair<VertexId, DistT>> labels;
  std::vector<MetaEdge> meta;  // every meta-edge at the column
  bool changed = false;
};

// Repairs column i after the batch `net` on the new graph `g`, reading the
// pre-edit scheme through `col`: depths first, then labels and meta-edges
// at every vertex whose QL status can have changed — the vertices whose
// depth changed, the endpoints of every edited edge, and the old and new
// children of every vertex whose depth changed.
ColumnRepair RepairColumn(const Graph& g, const NetChanges& net,
                          const PathLabeling& labeling, const MetaGraph& meta,
                          LandmarkIndex i, ColumnOverlay& col) {
  col.labeling = &labeling;
  col.meta_row = meta.DistanceRow(i);
  col.i = i;
  col.slots.resize(labeling.num_vertices());  // once per worker
  ColumnRepair out;
  for (LandmarkIndex j = 0; j < meta.num_landmarks(); ++j) {
    const uint32_t w = meta.EdgeWeight(i, j);
    if (j != i && w != kUnreachable) out.meta.push_back(MetaEdge{i, j, w});
  }
  const std::vector<DepthChange> changes = RepairColumnDepths(g, net, col);
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
    for (const uint32_t parent : {c.old_depth, col.Depth(c.v)}) {
      if (parent == kUnreachable) continue;
      for (const VertexId w : g.Neighbors(c.v)) {
        if (col.Depth(w) == parent + 1) candidates.push_back(w);
      }
    }
  }
  out.changed = RederiveLabelsAt(g, candidates, col, &out.meta) ||
                !changes.empty();
  // Hand the label writes over and reset the overlay for the next column.
  for (const VertexId v : col.touched) {
    if (col.slots[v].label_set) out.labels.emplace_back(v, col.slots[v].label);
    col.slots[v] = {};
  }
  col.touched.clear();
  return out;
}

}  // namespace

uint32_t ApplyNetToLabeling(const Graph& new_graph, const NetChanges& net,
                            PathLabeling* labeling, MetaGraph* meta) {
  const uint32_t k = labeling->num_landmarks();
  // Every column derives its old depths from all of L and from M, so no
  // column may write either until all are done. A label written in place
  // here would feed the columns repaired after it a half-edited old depth
  // (wrong labels even on one thread) and race with the columns repaired
  // beside it. So the writes wait for the parallel section to end.
  std::vector<ColumnOverlay> overlays(
      std::min<size_t>(EffectiveThreads(0), k));
  std::vector<ColumnRepair> repairs(k);
  ParallelFor(k, /*num_threads=*/0, [&](size_t i, size_t worker) {
    repairs[i] = RepairColumn(new_graph, net, *labeling, *meta,
                              static_cast<LandmarkIndex>(i), overlays[worker]);
  });
  uint32_t repaired = 0;
  for (LandmarkIndex i = 0; i < k; ++i) {
    for (const auto& [v, d] : repairs[i].labels) labeling->Set(v, i, d);
    repaired += repairs[i].changed;
  }
  *meta = AssembleMetaGraph(
      k, [&](LandmarkIndex i) -> std::span<const MetaEdge> {
        return repairs[i].meta;
      });
  return repaired;
}

}  // namespace qbs
