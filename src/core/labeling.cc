#include "core/labeling.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Dense bitset sized to the vertex space, rebuilt once per bottom-up level.
class Bitmap {
 public:
  void Resize(size_t n) { words_.assign((n + 63) / 64, 0); }
  void Set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1ull; }

 private:
  std::vector<uint64_t> words_;
};

// Direction switching [Beamer, Asanović & Patterson, SC'12]. When the
// frontier's outgoing edge volume passes 1/alpha of the unexplored edges,
// expanding it top-down would touch most of the graph; a bottom-up sweep —
// every unvisited vertex scans its neighbours for a frontier parent and
// stops at the first hit — turns the dense middle levels of a
// small-diameter network into roughly O(unvisited vertices). Once the
// frontier holds fewer than |V| / beta vertices the BFS drops back to
// top-down. alpha = 15 and beta = 18 are the conventional GAP constants.
// The caller scouts the degree of every vertex it settles; Step() consumes
// the scouted volume to pick the next level's direction.
class DirOptController {
 public:
  // The unexplored-volume budget is the 2|E| directed endpoints. Scout the
  // root's degree before the first Step().
  DirOptController(size_t num_vertices, uint64_t num_undirected_edges)
      : num_vertices_(num_vertices),
        edges_remaining_(2 * num_undirected_edges) {}

  void Scout(uint64_t degree) { scout_count_ += degree; }

  // Call exactly once per level, with the current frontier size.
  bool Step(size_t frontier_size) {
    constexpr uint64_t kAlpha = 15;
    constexpr size_t kBeta = 18;
    if (!bottom_up_ && scout_count_ > edges_remaining_ / kAlpha) {
      bottom_up_ = true;
    } else if (bottom_up_ && frontier_size < num_vertices_ / kBeta) {
      bottom_up_ = false;
    }
    edges_remaining_ -= scout_count_;
    scout_count_ = 0;
    return bottom_up_;
  }

 private:
  size_t num_vertices_;
  uint64_t edges_remaining_;
  uint64_t scout_count_ = 0;
  bool bottom_up_ = false;
};

// Per-worker scratch reused across the BFSs this worker runs.
struct BfsScratch {
  std::vector<uint32_t> depth;  // kUnreachable = unvisited
  // Level queues: vertices to be labelled (QL) / not labelled (QN).
  std::vector<VertexId> cur_l, cur_n, next_l, next_n;
  // Frontier membership bitmaps, rebuilt only for bottom-up levels.
  Bitmap bits_l, bits_n;
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
// two queues (QL / QN). QL classification takes priority: a vertex
// reachable both ways at the same depth counts as QL. Dense middle levels
// run bottom-up (every unvisited vertex scans its neighbourhood for a QL
// parent first, then a QN parent), which preserves the priority rule and
// cuts the per-landmark full-graph sweep — the construction-time hot path
// (Fig. 10) — to a fraction of its edges.
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

  DirOptController dir(n, g.NumEdges());
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
// vertex-major rows of k elements at `out`: a 64 x 64 tile of DistT spans
// 8KB on each side, so both stay cache-resident.
void TransposeColumns(const std::vector<DistT>& cols, size_t n, size_t k,
                      DistT* out) {
  constexpr size_t kTile = 64;
  QBS_CHECK_EQ(cols.size(), n * k);
  for (size_t v0 = 0; v0 < n; v0 += kTile) {
    const size_t v1 = std::min(v0 + kTile, n);
    for (size_t i0 = 0; i0 < k; i0 += kTile) {
      const size_t i1 = std::min(i0 + kTile, k);
      for (size_t v = v0; v < v1; ++v) {
        for (size_t i = i0; i < i1; ++i) out[v * k + i] = cols[i * n + v];
      }
    }
  }
}

}  // namespace

PathLabeling::PathLabeling(VertexId num_vertices,
                           std::vector<VertexId> landmarks)
    : PathLabeling(num_vertices, landmarks,
                   std::vector<DistT>(
                       static_cast<size_t>(num_vertices) * landmarks.size(),
                       kInfDist)) {}

PathLabeling::PathLabeling(VertexId num_vertices,
                           std::vector<VertexId> landmarks,
                           std::vector<DistT> rows)
    : num_vertices_(num_vertices),
      landmarks_(std::move(landmarks)),
      dist_(std::move(rows)) {
  QBS_CHECK_EQ(dist_.size(),
               static_cast<size_t>(num_vertices_) * landmarks_.size());
  landmark_rank_.assign(num_vertices_, -1);
  for (size_t i = 0; i < landmarks_.size(); ++i) {
    QBS_CHECK_LT(landmarks_[i], num_vertices_);
    QBS_CHECK_EQ(landmark_rank_[landmarks_[i]], -1);  // distinct
    landmark_rank_[landmarks_[i]] = static_cast<int32_t>(i);
  }
}

uint64_t PathLabeling::NumEntries() const {
  uint64_t count = 0;
  for (DistT d : dist_) {
    if (d != kInfDist) ++count;
  }
  return count;
}

void PathLabeling::AssignFromColumns(const std::vector<DistT>& cols) {
  TransposeColumns(cols, num_vertices_, landmarks_.size(), dist_.data());
}

LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   size_t num_threads) {
  LabelingScheme scheme;
  scheme.labeling = PathLabeling(g.NumVertices(), landmarks);
  const auto k = static_cast<uint32_t>(landmarks.size());

  // One BFS per landmark. Each BFS streams labels into its own
  // landmark-major column and meta-edge lists are per-landmark, so workers
  // never contend; a single blocked transpose then fills the vertex-major
  // query matrix.
  const size_t workers = std::min<size_t>(EffectiveThreads(num_threads), k);
  std::vector<BfsScratch> scratch(workers);
  std::vector<std::vector<MetaEdge>> local_meta(k);
  std::vector<DistT> cols(static_cast<size_t>(g.NumVertices()) * k, kInfDist);
  ParallelFor(k, workers, [&](size_t i, size_t worker) {
    LabelFromLandmark(g, scheme.labeling, static_cast<LandmarkIndex>(i),
                      cols.data() + i * static_cast<size_t>(g.NumVertices()),
                      &local_meta[i], &scratch[worker]);
  });
  scheme.labeling.AssignFromColumns(cols);
  scheme.meta = AssembleMetaGraph(
      k, [&](LandmarkIndex i) -> std::span<const MetaEdge> {
        return local_meta[i];
      });
  return scheme;
}

MetaGraph AssembleMetaGraph(
    uint32_t k,
    const std::function<std::span<const MetaEdge>(LandmarkIndex)>&
        column_meta) {
  MetaGraph meta(k);
  for (LandmarkIndex i = 0; i < k; ++i) {
    for (const MetaEdge& e : column_meta(i)) meta.AddEdge(e.a, e.b, e.weight);
  }
  meta.Finalize();
  return meta;
}

uint32_t DerivedDepth(const PathLabeling& labeling, const uint32_t* meta_row,
                      VertexId v) {
  const int32_t rank = labeling.LandmarkRank(v);
  if (rank >= 0) return meta_row[rank];
  const DistT* row = labeling.Row(v);
  // 64-bit sums: an unreachable meta row entry plus a label stays above
  // kUnreachable, so it never wins.
  uint64_t best = kUnreachable;
  for (uint32_t j = 0; j < labeling.num_landmarks(); ++j) {
    if (row[j] != kInfDist) {
      best = std::min<uint64_t>(best, uint64_t{meta_row[j]} + row[j]);
    }
  }
  return static_cast<uint32_t>(best);
}

}  // namespace qbs
