#include "core/labeling.h"

#include <algorithm>
#include <utility>

#include "graph/bfs.h"
#include "graph/frontier.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Per-worker scratch reused across the BFSs this worker runs.
struct BfsScratch {
  std::vector<uint32_t> depth;  // kUnreachable = unvisited
  // Level queues: vertices to be labelled (QL) / not labelled (QN).
  std::vector<VertexId> cur_l, cur_n, next_l, next_n;
  // Frontier membership bitmaps, rebuilt only for bottom-up levels.
  Bitmap bits_l, bits_n;
  // Every settled vertex in settle order (level-sorted: level d vertices
  // all precede level d+1). The bit-parallel mask sweep replays it.
  std::vector<VertexId> order;
  DirOptPolicy policy;
};

// Classifies and enqueues the vertex v, newly reached at `next_depth`.
// `via_l` says whether some shortest predecessor is in QL: vertices first
// reached from a QL vertex have a shortest path from the root avoiding
// other landmarks, so non-landmarks get a label (written into this BFS's
// own column `col`) and join QL while landmarks produce a meta-edge and
// join QN. Vertices reached only from QN join QN silently.
inline void Settle(VertexId v, bool via_l, uint32_t next_depth,
                   const PathLabeling& labeling, LandmarkIndex i, DistT* col,
                   std::vector<MetaEdge>* meta_edges, BfsScratch* s) {
  s->depth[v] = next_depth;
  s->order.push_back(v);
  if (!via_l) {
    s->next_n.push_back(v);
    return;
  }
  const int32_t rank = labeling.LandmarkRank(v);
  if (rank >= 0) {
    s->next_n.push_back(v);
    meta_edges->push_back(
        MetaEdge{i, static_cast<LandmarkIndex>(rank), next_depth});
  } else {
    s->next_l.push_back(v);
    col[v] = static_cast<DistT>(next_depth);
  }
}

// Top-down expansion of one frontier queue. With kBp, the expanding
// vertex's (final) S^{-1} mask is ORed into every neighbour at the next
// level — the scan already visits every parent edge, including those into
// vertices another parent discovered first, so the fused propagation costs
// no extra traversals. A zero mask propagates nothing and takes the plain
// loop.
template <bool kBp>
void ExpandTopDown(const Graph& g, const PathLabeling& labeling,
                   LandmarkIndex i, DistT* col,
                   std::vector<MetaEdge>* meta_edges, BfsScratch* s,
                   DirOptController* dir, [[maybe_unused]] BpMask* bp_col,
                   const std::vector<VertexId>& frontier, bool via_l,
                   uint32_t next_depth) {
  for (const VertexId u : frontier) {
    if constexpr (kBp) {
      const uint64_t mu = bp_col[u].s_minus;
      if (mu != 0) {
        for (VertexId v : g.Neighbors(u)) {
          if (s->depth[v] == kUnreachable) {
            Settle(v, via_l, next_depth, labeling, i, col, meta_edges, s);
            dir->Scout(g.Degree(v));
            bp_col[v].s_minus |= mu;
          } else if (s->depth[v] == next_depth) {
            bp_col[v].s_minus |= mu;
          }
        }
        continue;
      }
    }
    for (VertexId v : g.Neighbors(u)) {
      if (s->depth[v] != kUnreachable) continue;
      Settle(v, via_l, next_depth, labeling, i, col, meta_edges, s);
      dir->Scout(g.Degree(v));
    }
  }
}

// Algorithm 2, one landmark: a level-synchronous BFS from landmarks[i] with
// two queues (QL / QN) on the shared frontier substrate. QL classification
// takes priority: a vertex reachable both ways at the same depth counts as
// QL. Dense middle levels run bottom-up (every unvisited vertex scans its
// neighbourhood for a QL parent first, then a QN parent), which preserves
// the priority rule and cuts the per-landmark full-graph sweep — the
// construction-time hot path (Fig. 10) — to a fraction of its edges.
//
// With kBp set, the BFS also builds this landmark's S^{-1} masks inline
// (bp_col non-null, pre-zeroed, seeded here with the selected neighbours),
// replacing the reference replay's full ~2|E| S^{-1} sweep:
//   * top-down levels OR the expanding vertex's final mask into every
//     neighbour at the next level — exactly the parent edges the replay
//     sweep re-derives, at zero extra edge traversals;
//   * bottom-up levels keep their first-parent early exit (the pull cannot
//     collect every parent mask without forfeiting its main win) and
//     instead scatter masks afterwards from the frontier vertices whose
//     mask is nonzero. Masks are sparse — only <= 64 of a hub landmark's
//     neighbours are seeded, and bits spread no faster than the seeds'
//     neighbourhoods — so the scatter touches a small slice of the level's
//     adjacency where the replay sweep re-scans all of it.
// Level synchrony makes a level's masks final before the next level reads
// them, which is what makes the inline propagation equal to the
// level-ordered reference sweep bit for bit.
template <bool kBp>
void LabelFromLandmarkImpl(const Graph& g, const PathLabeling& labeling,
                           LandmarkIndex i, DistT* col,
                           std::vector<MetaEdge>* meta_edges, BfsScratch* s,
                           BpMask* bp_col) {
  const VertexId root = labeling.LandmarkVertex(i);
  const VertexId n = g.NumVertices();
  s->depth.assign(n, kUnreachable);
  s->cur_l.clear();
  s->cur_n.clear();
  s->order.clear();
  s->depth[root] = 0;
  s->order.push_back(root);
  s->cur_l.push_back(root);

  if constexpr (kBp) {
    // Seed bit j at u_j itself: d(u_j, u_j) = 0 = depth(u_j) - 1. All
    // selected vertices are non-landmark neighbours of the root, so they
    // settle at depth 1 and the seed is their whole mask.
    const auto& selected = labeling.BpSelected(i);
    for (size_t j = 0; j < selected.size(); ++j) {
      bp_col[selected[j]].s_minus = 1ull << j;
    }
  }

  DirOptController dir(s->policy, n, g.NumEdges());
  dir.Scout(g.Degree(root));

  uint32_t level = 0;
  while (!s->cur_l.empty() || !s->cur_n.empty()) {
    s->next_l.clear();
    s->next_n.clear();
    const uint32_t next_depth = level + 1;
    QBS_CHECK_LT(next_depth, static_cast<uint32_t>(kInfDist));

    const bool bottom_up = dir.Step(s->cur_l.size() + s->cur_n.size());

    if (bottom_up) {
      s->bits_l.Resize(n);
      s->bits_n.Resize(n);
      for (VertexId x : s->cur_l) s->bits_l.Set(x);
      for (VertexId x : s->cur_n) s->bits_n.Set(x);
      for (VertexId v = 0; v < n; ++v) {
        if (s->depth[v] != kUnreachable) continue;
        // Scan for a QL parent (which wins) before accepting a QN parent.
        bool via_l = false;
        bool via_n = false;
        for (VertexId w : g.Neighbors(v)) {
          if (s->bits_l.Test(w)) {
            via_l = true;
            break;
          }
          via_n |= s->bits_n.Test(w);
        }
        if (!via_l && !via_n) continue;
        Settle(v, via_l, next_depth, labeling, i, col, meta_edges, s);
        dir.Scout(g.Degree(v));
      }
      if constexpr (kBp) {
        // The early-exit pull saw only a fraction of the parent edges, so
        // this level's S^{-1} still has to flow. Two exact ways to move it;
        // pick the cheaper by adjacency volume (the masks' own
        // direction-optimization):
        //   scatter — from frontier vertices whose mask is nonzero (zero
        //   masks propagate nothing; right after the seeds, that is a
        //   handful of vertices);
        //   gather — every just-settled vertex ORs its depth-(d-1)
        //   neighbours (right when a small tail level hangs off a huge
        //   frontier).
        uint64_t vol_scatter = 0;
        for (const VertexId w : s->cur_l) {
          if (bp_col[w].s_minus != 0) vol_scatter += g.Degree(w);
        }
        for (const VertexId w : s->cur_n) {
          if (bp_col[w].s_minus != 0) vol_scatter += g.Degree(w);
        }
        uint64_t vol_gather = 0;
        for (const VertexId v : s->next_l) vol_gather += g.Degree(v);
        for (const VertexId v : s->next_n) vol_gather += g.Degree(v);
        if (vol_scatter <= vol_gather) {
          auto scatter = [&](const std::vector<VertexId>& frontier) {
            for (const VertexId w : frontier) {
              const uint64_t m = bp_col[w].s_minus;
              if (m == 0) continue;
              for (VertexId v : g.Neighbors(w)) {
                if (s->depth[v] == next_depth) bp_col[v].s_minus |= m;
              }
            }
          };
          scatter(s->cur_l);
          scatter(s->cur_n);
        } else {
          auto gather = [&](const std::vector<VertexId>& settled) {
            for (const VertexId v : settled) {
              uint64_t m = 0;
              for (VertexId w : g.Neighbors(v)) {
                if (s->depth[w] == level) m |= bp_col[w].s_minus;
              }
              bp_col[v].s_minus |= m;  // |=: level-1 seeds must survive
            }
          };
          gather(s->next_l);
          gather(s->next_n);
        }
      }
    } else {
      // QL is expanded before QN at each level, so a vertex reachable both
      // ways at the same depth is classified QL.
      ExpandTopDown<kBp>(g, labeling, i, col, meta_edges, s, &dir, bp_col,
                         s->cur_l, /*via_l=*/true, next_depth);
      ExpandTopDown<kBp>(g, labeling, i, col, meta_edges, s, &dir, bp_col,
                         s->cur_n, /*via_l=*/false, next_depth);
    }
    std::swap(s->cur_l, s->next_l);
    std::swap(s->cur_n, s->next_n);
    ++level;
  }
}

// Non-fused entry: the BFS alone. Mask columns are then filled by the
// two-sweep replay (ComputeBpColumn) if requested.
void LabelFromLandmark(const Graph& g, const PathLabeling& labeling,
                       LandmarkIndex i, DistT* col,
                       std::vector<MetaEdge>* meta_edges, BfsScratch* s) {
  LabelFromLandmarkImpl<false>(g, labeling, i, col, meta_edges, s, nullptr);
}

// Selects S_r for the landmark rooted at `root`: its first <= 64
// non-landmark neighbours in adjacency (ascending id) order.
std::vector<VertexId> SelectBpNeighbors(const Graph& g,
                                        const PathLabeling& labeling,
                                        VertexId root) {
  std::vector<VertexId> selected;
  for (VertexId w : g.Neighbors(root)) {
    if (labeling.IsLandmark(w)) continue;
    selected.push_back(w);
    if (selected.size() == 64) break;
  }
  return selected;
}

// The S^0 gather kernel over order[begin, end): each vertex ORs same-level
// neighbours' S^{-1} and parents' S^0, minus its own S^{-1}. Requires
// parents' s_zero to be final, which the settle order guarantees for both
// the full replay sweep and the fused path's per-level ranges — keep this
// the single definition of the recurrence, or the fused-vs-replay
// bit-identity breaks.
void GatherBpSZero(const Graph& g, const std::vector<uint32_t>& depth,
                   const std::vector<VertexId>& order, size_t begin,
                   size_t end, BpMask* col) {
  for (size_t idx = begin; idx < end; ++idx) {
    const VertexId v = order[idx];
    const uint32_t d = depth[v];
    if (d == 0) continue;
    uint64_t z = 0;
    for (VertexId w : g.Neighbors(v)) {
      if (depth[w] == d) {
        z |= col[w].s_minus;
      } else if (depth[w] + 1 == d) {
        z |= col[w].s_zero;
      }
    }
    col[v].s_zero = z & ~col[v].s_minus;
  }
}

// The replay S^0 sweep (same-level masks are not final while a level
// expands, so S^0 never fuses into the BFS itself): S^0 candidates come
// from same-level neighbours' S^{-1} AND parents' S^0, replayed in settle
// order so parents' S^0 is final before their children's, minus S^{-1}(v).
void ComputeBpSZeroSweep(const Graph& g, const std::vector<uint32_t>& depth,
                         const std::vector<VertexId>& order, BpMask* col) {
  GatherBpSZero(g, depth, order, 0, order.size(), col);
}

// The fused-path S^0 sweep: per-level direction choice between the gather
// above (every level vertex scans its adjacency) and zero-skipping
// scatters (only vertices whose mask is nonzero push it — a zero mask
// contributes nothing to any neighbour). Per level d of the level-sorted
// settle order, scatter means:
//   1. parents at d-1 with nonzero (finalized) S^0 push it to depth-d
//      neighbours;
//   2. level-d vertices with nonzero S^{-1} push it to same-depth
//      neighbours;
//   3. the level finalizes: s_zero &= ~s_minus.
// Step 3 of level d-1 runs before step 1 of level d, so parents always
// push finalized masks — the same ordering the settle-order gather relies
// on, hence bit-identical results whichever direction each level picks.
void ComputeBpSZeroFused(const Graph& g, const std::vector<uint32_t>& depth,
                         const std::vector<VertexId>& order, BpMask* col) {
  size_t prev_begin = 0;
  size_t prev_end = 0;
  size_t begin = 0;
  while (begin < order.size()) {
    const uint32_t d = depth[order[begin]];
    size_t end = begin;
    while (end < order.size() && depth[order[end]] == d) ++end;

    uint64_t vol_gather = 0;
    for (size_t idx = begin; idx < end; ++idx) {
      vol_gather += g.Degree(order[idx]);
    }
    uint64_t vol_scatter = 0;
    for (size_t idx = prev_begin; idx < prev_end; ++idx) {
      if (col[order[idx]].s_zero != 0) vol_scatter += g.Degree(order[idx]);
    }
    for (size_t idx = begin; idx < end; ++idx) {
      if (col[order[idx]].s_minus != 0) vol_scatter += g.Degree(order[idx]);
    }

    if (vol_scatter <= vol_gather) {
      for (size_t idx = prev_begin; idx < prev_end; ++idx) {
        const VertexId w = order[idx];
        const uint64_t z = col[w].s_zero;
        if (z == 0) continue;
        for (VertexId v : g.Neighbors(w)) {
          if (depth[v] == d) col[v].s_zero |= z;
        }
      }
      for (size_t idx = begin; idx < end; ++idx) {
        const VertexId w = order[idx];
        const uint64_t m = col[w].s_minus;
        if (m == 0) continue;
        for (VertexId v : g.Neighbors(w)) {
          if (depth[v] == d) col[v].s_zero |= m;
        }
      }
      for (size_t idx = begin; idx < end; ++idx) {
        const VertexId v = order[idx];
        col[v].s_zero &= ~col[v].s_minus;
      }
    } else {
      GatherBpSZero(g, depth, order, begin, end, col);
    }
    prev_begin = begin;
    prev_end = end;
    begin = end;
  }
}

// Fills this landmark's mask column from the finished BFS (depth array +
// level-sorted settle order). Two level-synchronous sweeps:
//   S^{-1} flows down parent edges only (a shortest u_j..v path enters v
//   through a predecessor w with depth(w) = depth(v) - 1 and
//   d(u_j, w) = depth(w) - 1), seeded with bit j at the selected vertex
//   u_j itself (d(u_j, u_j) = 0 = depth(u_j) - 1);
//   S^{0} candidates come from same-level neighbours' S^{-1} AND parents'
//   S^{0} (the predecessor of a length-depth(v) path sits at depth(v) - 1
//   with d(u_j, w) = depth(w), or at depth(v) with d(u_j, w) =
//   depth(w) - 1), minus S^{-1}(v) — both sources can also witness the
//   one-closer distance.
// Replaying the settle order keeps both sweeps in level order without
// re-bucketing (parents' S^{0} is final before their children's), and
// `col` slices a zero-initialized buffer, so unreached vertices keep empty
// masks.
void ComputeBpColumn(const Graph& g, const std::vector<VertexId>& selected,
                     const std::vector<uint32_t>& depth,
                     const std::vector<VertexId>& order, BpMask* col) {
  if (selected.empty()) return;
  for (size_t j = 0; j < selected.size(); ++j) {
    col[selected[j]].s_minus = 1ull << j;
  }
  for (const VertexId v : order) {
    const uint32_t d = depth[v];
    if (d < 2) continue;  // root and level 1 are fully seeded above
    uint64_t m = 0;
    for (VertexId w : g.Neighbors(v)) {
      if (depth[w] == d - 1) m |= col[w].s_minus;
    }
    col[v].s_minus = m;
  }
  ComputeBpSZeroSweep(g, depth, order, col);
}

// Blocked transpose of a landmark-major buffer (cols[i * n + v]) into
// vertex-major rows of `stride` elements at `out`: a kTile x kTile tile
// keeps both the source and the target side cache-resident.
template <size_t kTile, typename T>
void TransposeColumns(const std::vector<T>& cols, size_t n, size_t k,
                      size_t stride, T* out) {
  QBS_CHECK_EQ(cols.size(), n * k);
  for (size_t v0 = 0; v0 < n; v0 += kTile) {
    const size_t v1 = std::min(v0 + kTile, n);
    for (size_t i0 = 0; i0 < k; i0 += kTile) {
      const size_t i1 = std::min(i0 + kTile, k);
      for (size_t v = v0; v < v1; ++v) {
        for (size_t i = i0; i < i1; ++i) out[v * stride + i] = cols[i * n + v];
      }
    }
  }
}

}  // namespace

PathLabeling::PathLabeling(VertexId num_vertices,
                           std::vector<VertexId> landmarks)
    : num_vertices_(num_vertices), landmarks_(std::move(landmarks)) {
  landmark_rank_.assign(num_vertices_, -1);
  for (size_t i = 0; i < landmarks_.size(); ++i) {
    QBS_CHECK_LT(landmarks_[i], num_vertices_);
    QBS_CHECK_EQ(landmark_rank_[landmarks_[i]], -1);  // distinct
    landmark_rank_[landmarks_[i]] = static_cast<int32_t>(i);
  }
  // Rows are padded to the SIMD lane width; padding lanes hold kInfDist
  // forever (Set never writes past |R|), which is what lets the row
  // kernels scan the full stride without a tail loop.
  stride_ = (static_cast<uint32_t>(landmarks_.size()) + kLabelRowLaneAlign -
             1) /
            kLabelRowLaneAlign * kLabelRowLaneAlign;
  dist_.assign(static_cast<size_t>(num_vertices_) * stride_, kInfDist);
}

uint64_t PathLabeling::NumEntries() const {
  uint64_t count = 0;
  for (DistT d : dist_) {
    if (d != kInfDist) ++count;
  }
  return count;
}

void PathLabeling::AssignFromColumns(const std::vector<DistT>& cols) {
  // A 64x64 tile of DistT spans 8KB on each side.
  TransposeColumns<64>(cols, num_vertices_, landmarks_.size(), stride_,
                       dist_.data());
}

void PathLabeling::AssignFromRows(const std::vector<DistT>& rows) {
  const size_t k = landmarks_.size();
  QBS_CHECK_EQ(rows.size(), static_cast<size_t>(num_vertices_) * k);
  for (size_t v = 0; v < num_vertices_; ++v) {
    std::copy_n(rows.data() + v * k, k, dist_.data() + v * stride_);
  }
}

void PathLabeling::EnableBpMasks() {
  bp_.assign(static_cast<size_t>(num_vertices_) * landmarks_.size(),
             BpMask{});
  bp_selected_.assign(landmarks_.size(), {});
}

void PathLabeling::SetBpSelected(LandmarkIndex i,
                                 std::vector<VertexId> selected) {
  QBS_CHECK_LE(selected.size(), 64u);
  bp_selected_[i] = std::move(selected);
}

void PathLabeling::AssignBpMasks(std::vector<std::vector<VertexId>> selected,
                                 std::vector<BpMask> masks) {
  QBS_CHECK_EQ(selected.size(), landmarks_.size());
  for (const auto& s : selected) QBS_CHECK_LE(s.size(), 64u);
  QBS_CHECK_EQ(masks.size(),
               static_cast<size_t>(num_vertices_) * landmarks_.size());
  bp_selected_ = std::move(selected);
  bp_ = std::move(masks);
}

void PathLabeling::AssignBpFromColumns(const std::vector<BpMask>& cols) {
  QBS_CHECK_EQ(bp_.size(), cols.size());
  // A BpMask is 16 bytes, so a 32x32 tile spans 16KB per side.
  TransposeColumns<32>(cols, num_vertices_, landmarks_.size(),
                       landmarks_.size(), bp_.data());
}

LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   const LabelingBuildOptions& options) {
  LabelingScheme scheme;
  scheme.labeling = PathLabeling(g.NumVertices(), landmarks);
  const auto k = static_cast<uint32_t>(landmarks.size());
  scheme.meta = MetaGraph(k);
  if (k == 0) {
    scheme.meta.Finalize();
    return scheme;
  }

  // One BFS per landmark. Each BFS streams labels into its own
  // landmark-major column and meta-edge lists are per-landmark, so workers
  // never contend; a single blocked transpose then fills the vertex-major
  // query matrix. When bit-parallel masks are on, the finished BFS (depth
  // array + settle order) feeds the mask sweeps before the worker moves on,
  // into a mask column of the same landmark-major layout.
  const size_t workers =
      std::min<size_t>(EffectiveThreads(options.num_threads), k);
  std::vector<BfsScratch> scratch(workers);
  std::vector<std::vector<MetaEdge>> local_meta(k);
  std::vector<DistT> cols(static_cast<size_t>(g.NumVertices()) * k, kInfDist);
  std::vector<BpMask> bp_cols;
  if (options.bit_parallel) {
    scheme.labeling.EnableBpMasks();
    bp_cols.assign(static_cast<size_t>(g.NumVertices()) * k, BpMask{});
    for (LandmarkIndex i = 0; i < k; ++i) {
      scheme.labeling.SetBpSelected(
          i, SelectBpNeighbors(g, scheme.labeling, landmarks[i]));
    }
  }

  ParallelFor(k, workers, [&](size_t i, size_t worker) {
    DistT* label_col =
        cols.data() + i * static_cast<size_t>(g.NumVertices());
    BpMask* bp_col =
        options.bit_parallel
            ? bp_cols.data() + i * static_cast<size_t>(g.NumVertices())
            : nullptr;
    if (options.bit_parallel && options.bp_fused) {
      // Fused: the BFS propagates S^{-1} inline; S^0 follows by per-level
      // zero-skipping scatters instead of a full replay sweep.
      LabelFromLandmarkImpl<true>(g, scheme.labeling,
                                  static_cast<LandmarkIndex>(i), label_col,
                                  &local_meta[i], &scratch[worker], bp_col);
      ComputeBpSZeroFused(g, scratch[worker].depth, scratch[worker].order,
                          bp_col);
      return;
    }
    LabelFromLandmark(g, scheme.labeling, static_cast<LandmarkIndex>(i),
                      label_col, &local_meta[i], &scratch[worker]);
    if (options.bit_parallel) {
      ComputeBpColumn(
          g, scheme.labeling.BpSelected(static_cast<LandmarkIndex>(i)),
          scratch[worker].depth, scratch[worker].order, bp_col);
    }
  });
  scheme.labeling.AssignFromColumns(cols);
  if (options.bit_parallel) scheme.labeling.AssignBpFromColumns(bp_cols);

  // Each meta-edge is discovered from both endpoints (the existence
  // condition is symmetric); keep one copy and let AddEdge cross-check the
  // duplicate's weight.
  for (const auto& edges : local_meta) {
    for (const MetaEdge& e : edges) {
      scheme.meta.AddEdge(e.a, e.b, e.weight);
    }
  }
  scheme.meta.Finalize();
  return scheme;
}

void RebuildLabelColumn(const Graph& g, PathLabeling& labeling,
                        LandmarkIndex i, LabelColumnState* state) {
  const VertexId n = g.NumVertices();
  std::vector<DistT> col(n, kInfDist);
  std::vector<MetaEdge> meta;
  BfsScratch s;
  if (labeling.has_bp_masks()) {
    // S_r is an adjacency property, so edge edits at the root can change
    // it — refresh before seeding.
    labeling.SetBpSelected(
        i, SelectBpNeighbors(g, labeling, labeling.LandmarkVertex(i)));
    std::vector<BpMask> bp_col(n, BpMask{});
    LabelFromLandmarkImpl<true>(g, labeling, i, col.data(), &meta, &s,
                                bp_col.data());
    ComputeBpSZeroFused(g, s.depth, s.order, bp_col.data());
    for (VertexId v = 0; v < n; ++v) labeling.SetBpMask(v, i, bp_col[v]);
  } else {
    LabelFromLandmark(g, labeling, i, col.data(), &meta, &s);
  }
  for (VertexId v = 0; v < n; ++v) labeling.Set(v, i, col[v]);
  std::sort(meta.begin(), meta.end());
  state->depth = std::move(s.depth);
  state->meta = std::move(meta);
}

void RederiveLabelColumn(const Graph& g, PathLabeling& labeling,
                         LandmarkIndex i, LabelColumnState* state) {
  const VertexId n = g.NumVertices();
  const std::vector<uint32_t>& depth = state->depth;
  QBS_CHECK_EQ(depth.size(), static_cast<size_t>(n));

  // Level-sorted settle order via counting sort (ascending id within each
  // level). Any level-sorted order derives identical labels and masks: the
  // QL rule and both mask recurrences only compare depths across edges.
  uint32_t max_depth = 0;
  size_t reached = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (depth[v] == kUnreachable) continue;
    ++reached;
    max_depth = std::max(max_depth, depth[v]);
  }
  QBS_CHECK_LT(max_depth, static_cast<uint32_t>(kInfDist));
  std::vector<size_t> level_begin(static_cast<size_t>(max_depth) + 2, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (depth[v] != kUnreachable) ++level_begin[depth[v] + 1];
  }
  for (size_t d = 1; d < level_begin.size(); ++d) {
    level_begin[d] += level_begin[d - 1];
  }
  std::vector<VertexId> order(reached);
  std::vector<size_t> cursor(level_begin.begin(), level_begin.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    if (depth[v] != kUnreachable) order[cursor[depth[v]]++] = v;
  }

  // QL reclassification in level order: the root seeds QL; a vertex is QL
  // iff some depth-(d-1) parent is QL and it is not itself a landmark.
  // Non-landmark QL vertices carry the label; landmarks first reached via a
  // QL parent produce the meta-edge — exactly Settle()'s rule, driven by
  // exact depths instead of discovery order.
  for (VertexId v = 0; v < n; ++v) labeling.Set(v, i, kInfDist);
  std::vector<MetaEdge> meta;
  std::vector<uint8_t> ql(n, 0);
  for (const VertexId v : order) {
    const uint32_t d = depth[v];
    if (d == 0) {
      ql[v] = 1;  // the root joins QL even though it is a landmark
      continue;
    }
    bool via_l = false;
    for (VertexId w : g.Neighbors(v)) {
      // depth[w] + 1 wraps to 0 for unreached w; d >= 1 here, so no match.
      if (depth[w] + 1 == d && ql[w] != 0) {
        via_l = true;
        break;
      }
    }
    const int32_t rank = labeling.LandmarkRank(v);
    if (rank >= 0) {
      if (via_l) {
        meta.push_back(MetaEdge{i, static_cast<LandmarkIndex>(rank), d});
      }
    } else if (via_l) {
      ql[v] = 1;
      labeling.Set(v, i, static_cast<DistT>(d));
    }
  }

  if (labeling.has_bp_masks()) {
    labeling.SetBpSelected(
        i, SelectBpNeighbors(g, labeling, labeling.LandmarkVertex(i)));
    std::vector<BpMask> bp_col(n, BpMask{});
    ComputeBpColumn(g, labeling.BpSelected(i), depth, order, bp_col.data());
    for (VertexId v = 0; v < n; ++v) labeling.SetBpMask(v, i, bp_col[v]);
  }
  std::sort(meta.begin(), meta.end());
  state->meta = std::move(meta);
}

}  // namespace qbs
