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
    DistT label = 0;  // 0: not written (no label entry is 0)
    bool touched = false;
    bool lowered = false;  // depth lowered by the repair, not yet popped
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
    return slots[v].label != 0 ? slots[v].label : labeling->Get(v, i);
  }
  void SetLabel(VertexId v, DistT d) { At(v).label = d; }
};
// The slots are the repair's hot array; keep one at 8 bytes.
static_assert(sizeof(ColumnOverlay::Slot) == 8);

// What the repair of one column hands back for the write-back.
struct ColumnRepair {
  std::vector<std::pair<VertexId, DistT>> labels;
  std::vector<MetaEdge> meta;  // every meta-edge at the column
  bool changed = false;
};

// Repairs column i after the batch `net` on the new graph `g`, reading the
// pre-edit scheme through `col`, in two passes over the changed region.
//
// Deletes (Ramalingam-Reps style): a vertex keeps its old depth d if some
// neighbour on the new graph kept its old depth d - 1 ("supported").
// Support can only be lost below the deeper endpoint of a deleted parent
// edge, so those endpoints are checked first, in increasing old depth, and
// the children of every vertex that loses support are checked after it.
// Every unchecked or supported vertex has a path of its old length on the
// new graph, so the old depths stay valid upper bounds there.
//
// Then one bucket queue by depth, as Algorithm 2's BFS, lowers depths to
// exact and re-derives each popped vertex's label or meta-edge with the
// build's rule: a vertex is QL iff some depth-(d-1) neighbour is QL. Its
// parents' depths and labels are final by then. The lost vertices restart
// unreached and are seeded from their reached neighbours, each insert
// seeds its far endpoint, and the queue starts with every vertex whose
// parents can have changed: the lost ones, every edited endpoint and every
// checked vertex that kept its depth. A popped vertex relaxes its
// neighbours if the pass lowered it, and queues its children if it was
// lowered or joined or left QL. Lost vertices no path reaches lose their
// label or meta-edge. A depth the labels cannot hold fails the build's
// QBS_CHECK.
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

  std::vector<std::vector<VertexId>> queue;  // by new depth
  auto enqueue = [&](VertexId v) {
    const uint32_t d = col.Depth(v);
    if (d == kUnreachable) return;
    if (queue.size() <= d) queue.resize(static_cast<size_t>(d) + 1);
    queue[d].push_back(v);
  };

  // Lost support is marked in the high bit while old depths are still
  // read: a marked vertex then matches no depth d - 1, and depths stay
  // below kInfDist, far from the bit.
  constexpr uint32_t kLost = 0x80000000u;
  std::vector<std::vector<VertexId>> check;  // by old depth
  std::vector<VertexId> lost;
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
      if (supported) {
        enqueue(v);  // it may have lost its only QL parent
        continue;
      }
      lost.push_back(v);
      col.SetDepth(v, static_cast<uint32_t>(d) | kLost);
      for (const VertexId w : g.Neighbors(v)) {
        if (col.Depth(w) == d + 1) to_check(w);
      }
    }
  }
  for (const VertexId v : lost) col.SetDepth(v, kUnreachable);

  auto lower = [&](VertexId v, uint32_t nd) {
    ColumnOverlay::Slot& s = col.At(v);
    if (nd >= s.depth) return;
    QBS_CHECK_LT(nd, static_cast<uint32_t>(kInfDist));
    s.depth = nd;
    s.lowered = true;
  };
  for (const VertexId v : lost) {
    for (const VertexId w : g.Neighbors(v)) {
      if (col.Depth(w) != kUnreachable) lower(v, col.Depth(w) + 1);
    }
  }
  for (const Edge& e : net.inserts) {
    if (col.Depth(e.u) != kUnreachable) lower(e.v, col.Depth(e.u) + 1);
    if (col.Depth(e.v) != kUnreachable) lower(e.u, col.Depth(e.v) + 1);
  }
  for (const VertexId v : lost) enqueue(v);
  for (const std::vector<Edge>* edits : {&net.inserts, &net.deletes}) {
    for (const Edge& e : *edits) {
      enqueue(e.u);
      enqueue(e.v);
    }
  }

  const VertexId root = labeling.LandmarkVertex(i);
  auto in_ql = [&](VertexId w) {
    return w == root || (!labeling.IsLandmark(w) && col.Label(w) != kInfDist);
  };
  // Replaces the meta-edge to `rank` by weight d, or removes it when d is
  // kUnreachable.
  auto set_meta = [&](LandmarkIndex rank, uint32_t d) {
    const auto old =
        std::find_if(out.meta.begin(), out.meta.end(),
                     [&](const MetaEdge& e) { return e.b == rank; });
    const uint32_t had = old == out.meta.end() ? kUnreachable : old->weight;
    if (had == d) return;
    out.changed = true;
    if (old != out.meta.end()) out.meta.erase(old);
    if (d != kUnreachable) out.meta.push_back(MetaEdge{i, rank, d});
  };

  // Depth 0 is the root alone, QL by definition. A vertex can sit in its
  // level more than once; clearing `lowered` on the first pop makes the
  // later ones re-derive the same label and stop there.
  for (size_t d = 1; d < queue.size(); ++d) {
    // Moved out: queueing children may grow `queue`.
    const std::vector<VertexId> level = std::move(queue[d]);
    for (const VertexId v : level) {
      if (col.Depth(v) != d) continue;  // superseded by a lower depth
      const bool lowered = std::exchange(col.slots[v].lowered, false);
      bool via_l = false;
      for (const VertexId w : g.Neighbors(v)) {
        // Depth(w) + 1 wraps to 0 for unreached w; d >= 1 here.
        if (col.Depth(w) + 1 == d && in_ql(w)) {
          via_l = true;
          break;
        }
      }
      bool flipped = false;
      const int32_t rank = labeling.LandmarkRank(v);
      if (rank >= 0) {
        set_meta(static_cast<LandmarkIndex>(rank),
                 via_l ? static_cast<uint32_t>(d) : kUnreachable);
      } else {
        const DistT want = via_l ? static_cast<DistT>(d) : kInfDist;
        const DistT had = col.Label(v);
        if (had != want) {
          out.changed = true;
          col.SetLabel(v, want);
          flipped = (had != kInfDist) != via_l;
        }
      }
      // A lowered vertex changed the column unless it was lost and came
      // back to its old depth.
      if (lowered && !out.changed) {
        out.changed = d != DerivedDepth(labeling, col.meta_row, v);
      }
      if (!lowered && !flipped) continue;
      for (const VertexId w : g.Neighbors(v)) {
        if (lowered) lower(w, static_cast<uint32_t>(d) + 1);
        if (col.Depth(w) == d + 1) enqueue(w);
      }
    }
  }
  for (const VertexId v : lost) {
    if (col.Depth(v) != kUnreachable) continue;
    out.changed = true;
    const int32_t rank = labeling.LandmarkRank(v);
    if (rank >= 0) {
      set_meta(static_cast<LandmarkIndex>(rank), kUnreachable);
    } else {
      col.SetLabel(v, kInfDist);
    }
  }

  // Hand the label writes over and reset the overlay for the next column.
  for (const VertexId v : col.touched) {
    if (col.slots[v].label != 0) out.labels.emplace_back(v, col.slots[v].label);
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
