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

void RederiveLabelColumn(const Graph& g, PathLabeling& labeling,
                         LandmarkIndex i, LabelColumnState* state) {
  const VertexId n = g.NumVertices();
  const std::vector<uint32_t>& depth = state->depth;
  QBS_CHECK_EQ(depth.size(), static_cast<size_t>(n));

  // Level-sorted settle order via counting sort (ascending id within each
  // level). Any level-sorted order derives identical labels: the QL rule
  // only compares depths across edges.
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

  std::sort(meta.begin(), meta.end());
  state->meta = std::move(meta);
}

}  // namespace qbs
