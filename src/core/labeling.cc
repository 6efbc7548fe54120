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

// Top-down expansion of one frontier queue.
void ExpandTopDown(const Graph& g, const PathLabeling& labeling,
                   LandmarkIndex i, DistT* col,
                   std::vector<MetaEdge>* meta_edges, BfsScratch* s,
                   DirOptController* dir,
                   const std::vector<VertexId>& frontier, bool via_l,
                   uint32_t next_depth) {
  for (const VertexId u : frontier) {
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
void LabelFromLandmark(const Graph& g, const PathLabeling& labeling,
                       LandmarkIndex i, DistT* col,
                       std::vector<MetaEdge>* meta_edges, BfsScratch* s) {
  const VertexId root = labeling.LandmarkVertex(i);
  const VertexId n = g.NumVertices();
  s->depth.assign(n, kUnreachable);
  s->cur_l.clear();
  s->cur_n.clear();
  s->depth[root] = 0;
  s->cur_l.push_back(root);

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
    } else {
      // QL is expanded before QN at each level, so a vertex reachable both
      // ways at the same depth is classified QL.
      ExpandTopDown(g, labeling, i, col, meta_edges, s, &dir, s->cur_l,
                    /*via_l=*/true, next_depth);
      ExpandTopDown(g, labeling, i, col, meta_edges, s, &dir, s->cur_n,
                    /*via_l=*/false, next_depth);
    }
    std::swap(s->cur_l, s->next_l);
    std::swap(s->cur_n, s->next_n);
    ++level;
  }
}

// Blocked transpose of a landmark-major buffer (cols[i * n + v]) into
// vertex-major rows of `stride` elements at `out`: a 64 x 64 tile of DistT
// spans 8KB on each side, so both stay cache-resident.
void TransposeColumns(const std::vector<DistT>& cols, size_t n, size_t k,
                      size_t stride, DistT* out) {
  constexpr size_t kTile = 64;
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
  // Rows are padded to kLabelRowLaneAlign lanes; padding lanes hold
  // kInfDist forever (Set never writes past |R|), which is what lets the
  // row scans cover the full stride.
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
  TransposeColumns(cols, num_vertices_, landmarks_.size(), stride_,
                       dist_.data());
}

void PathLabeling::AssignFromRows(const std::vector<DistT>& rows) {
  const size_t k = landmarks_.size();
  QBS_CHECK_EQ(rows.size(), static_cast<size_t>(num_vertices_) * k);
  for (size_t v = 0; v < num_vertices_; ++v) {
    std::copy_n(rows.data() + v * k, k, dist_.data() + v * stride_);
  }
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
  // query matrix.
  const size_t workers =
      std::min<size_t>(EffectiveThreads(options.num_threads), k);
  std::vector<BfsScratch> scratch(workers);
  std::vector<std::vector<MetaEdge>> local_meta(k);
  std::vector<DistT> cols(static_cast<size_t>(g.NumVertices()) * k, kInfDist);
  ParallelFor(k, workers, [&](size_t i, size_t worker) {
    LabelFromLandmark(g, scheme.labeling, static_cast<LandmarkIndex>(i),
                      cols.data() + i * static_cast<size_t>(g.NumVertices()),
                      &local_meta[i], &scratch[worker]);
  });
  scheme.labeling.AssignFromColumns(cols);

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
  LabelFromLandmark(g, labeling, i, col.data(), &meta, &s);
  for (VertexId v = 0; v < n; ++v) labeling.Set(v, i, col[v]);
  std::sort(meta.begin(), meta.end());
  state->depth = std::move(s.depth);
  state->meta = std::move(meta);
}

bool RederiveLabelsAt(const Graph& g, PathLabeling& labeling,
                      LandmarkIndex i, const std::vector<VertexId>& candidates,
                      LabelColumnState* state) {
  const std::vector<uint32_t>& depth = state->depth;
  QBS_CHECK_EQ(depth.size(), static_cast<size_t>(g.NumVertices()));
  const VertexId root = labeling.LandmarkVertex(i);
  // QL membership read back from the column: the root, and every
  // non-landmark that carries a label.
  auto in_ql = [&](VertexId w) {
    return w == root ||
           (!labeling.IsLandmark(w) && labeling.Get(w, i) != kInfDist);
  };
  // Candidates by new depth. A vertex's QL status depends only on its
  // depth-(d-1) parents, so re-deriving level by level reads every parent
  // after its own re-derivation.
  std::vector<std::vector<VertexId>> levels;
  std::vector<VertexId> unreached;
  auto enqueue = [&](VertexId v) {
    const uint32_t d = depth[v];
    if (d == kUnreachable) {
      unreached.push_back(v);
      return;
    }
    if (levels.size() <= d) levels.resize(static_cast<size_t>(d) + 1);
    levels[d].push_back(v);
  };
  for (const VertexId v : candidates) enqueue(v);

  bool changed = false;
  // The column holds at most one meta-edge per landmark: replaces the one
  // to `rank` by weight d, or removes it when d is kUnreachable.
  auto set_meta = [&](LandmarkIndex rank, uint32_t d) {
    auto& meta = state->meta;
    const auto old =
        std::find_if(meta.begin(), meta.end(),
                     [&](const MetaEdge& e) { return e.b == rank; });
    const uint32_t had = old == meta.end() ? kUnreachable : old->weight;
    if (had == d) return;
    changed = true;
    if (old != meta.end()) meta.erase(old);
    if (d != kUnreachable) meta.push_back(MetaEdge{i, rank, d});
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
        // depth[w] + 1 wraps to 0 for unreached w; d >= 1 here.
        if (depth[w] + 1 == d && in_ql(w)) {
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
      const DistT had = labeling.Get(v, i);
      if (had == want) continue;
      changed = true;
      labeling.Set(v, i, want);
      if ((had != kInfDist) != via_l) {
        // v joined or left QL: its children may follow.
        for (const VertexId w : g.Neighbors(v)) {
          if (depth[w] == d + 1) enqueue(w);
        }
      }
    }
  }
  for (const VertexId v : unreached) {
    const int32_t rank = labeling.LandmarkRank(v);
    if (rank >= 0) {
      set_meta(static_cast<LandmarkIndex>(rank), kUnreachable);
    } else if (labeling.Get(v, i) != kInfDist) {
      changed = true;
      labeling.Set(v, i, kInfDist);
    }
  }
  if (changed) std::sort(state->meta.begin(), state->meta.end());
  return changed;
}

}  // namespace qbs
