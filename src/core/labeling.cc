#include "core/labeling.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs {
namespace {

// Vertices per ParallelFor index on a pull level.
constexpr size_t kPullBlock = 1024;

// The landmark index of the lowest set lane in word `word` of a lane set.
template <typename Word>
LandmarkIndex LowestLane(size_t word, Word bits) {
  return static_cast<LandmarkIndex>(word * std::numeric_limits<Word>::digits +
                                    std::countr_zero(bits));
}

// Algorithm 2 for every landmark at once: one level-synchronous BFS that
// carries a bit lane per landmark [Then et al., "The More the Merrier",
// PVLDB 8(4), 2014], `words` lane words of type Word per vertex and lane
// set (kWords when nonzero, fixed at compile time). The word is 32 bits
// wide when |R| <= 32 and 64 bits otherwise, so the default |R| = 20
// moves half the lane bytes a 64-bit word would. Each vertex keeps
// three lane sets: `seen` (lanes that have reached it), `cur` (lanes that
// reached it at the current depth) and `cur_ql`, the subset of `cur` whose
// landmark reached it by a shortest path avoiding every other landmark —
// Algorithm 2's QL. A level ORs each frontier vertex's lanes, masked to
// the target's unseen lanes, into `next`, and its QL lanes into
// `next_ql`, so a vertex reached both ways at one depth is QL. A
// non-landmark writes a label for each QL lane it settles; a landmark
// yields a meta-edge per QL lane that reaches it and joins QN in every
// lane.
//
// A level whose frontier's degree sum passes 2|E|/15 pulls: every vertex
// with unseen lanes ORs in its neighbours' lanes, stopping once its QL
// lanes cover the lanes it could still gain, as in direction-optimizing
// BFS [Beamer, Asanović & Patterson, SC'12]. The pull splits over vertex
// blocks on `num_threads`; each vertex writes only its own lanes and label
// row, so the result cannot depend on the thread count. Sparser levels push
// sequentially from the frontier list.
template <typename Word, size_t kWords>
void LabelAllLandmarks(const Graph& g, size_t num_threads,
                       PathLabeling* labeling,
                       std::vector<std::vector<MetaEdge>>* meta) {
  const VertexId n = g.NumVertices();
  const uint32_t k = labeling->num_landmarks();
  constexpr uint32_t kLanes = std::numeric_limits<Word>::digits;
  const size_t words = kWords != 0 ? kWords : (k + kLanes - 1) / kLanes;
  std::vector<Word> seen(n * words), cur(n * words), cur_ql(n * words),
      next(n * words), next_ql(n * words);
  const auto at = [words](std::vector<Word>& lanes, VertexId v) {
    return lanes.data() + v * words;
  };

  std::vector<VertexId> frontier;
  for (LandmarkIndex i = 0; i < k; ++i) {
    const VertexId r = labeling->LandmarkVertex(i);
    const Word bit = Word{1} << (i % kLanes);
    at(seen, r)[i / kLanes] = at(cur, r)[i / kLanes] =
        at(cur_ql, r)[i / kLanes] = bit;
    frontier.push_back(r);
  }

  // Settles v at `depth` with the lanes the level left in next[v].
  const auto settle = [&](VertexId v, uint32_t depth) {
    QBS_CHECK_LT(depth, static_cast<uint32_t>(kInfDist));
    Word* s = at(seen, v);
    const Word* nx = at(next, v);
    const Word* nq = at(next_ql, v);
    for (size_t x = 0; x < words; ++x) s[x] |= nx[x];
    if (labeling->IsLandmark(v)) return;  // meta-edges follow the level
    for (size_t x = 0; x < words; ++x) {
      for (Word b = nq[x]; b != 0; b &= b - 1) {
        labeling->Set(v, LowestLane(x, b), static_cast<DistT>(depth));
      }
    }
  };

  const size_t blocks = (n + kPullBlock - 1) / kPullBlock;
  const size_t workers = std::min(EffectiveThreads(num_threads), blocks);
  std::vector<std::vector<VertexId>> block_reached(blocks);
  std::vector<Word> scratch(workers * 3 * words);  // per worker
  std::vector<Word> active(words);  // lanes in the frontier
  std::vector<VertexId> reached;
  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    uint64_t degree_sum = 0;
    std::fill(active.begin(), active.end(), 0);
    for (const VertexId v : frontier) {
      degree_sum += g.Degree(v);
      for (size_t x = 0; x < words; ++x) active[x] |= at(cur, v)[x];
    }
    reached.clear();
    if (degree_sum > 2 * g.NumEdges() / 15) {
      ParallelFor(blocks, workers, [&](size_t block, size_t worker) {
        Word local[kWords != 0 ? 3 * kWords : 1] = {};
        Word* want =
            kWords != 0 ? local : scratch.data() + worker * 3 * words;
        Word* acc = want + words;
        Word* acc_ql = acc + words;
        std::vector<VertexId>& out = block_reached[block];
        out.clear();
        const auto begin = static_cast<VertexId>(block * kPullBlock);
        const auto end = static_cast<VertexId>(
            std::min<size_t>(n, (block + 1) * kPullBlock));
        for (VertexId v = begin; v < end; ++v) {
          Word any = 0;
          for (size_t x = 0; x < words; ++x) {
            want[x] = ~at(seen, v)[x] & active[x];
            any |= want[x];
            acc[x] = acc_ql[x] = 0;
          }
          if (any == 0) continue;
          for (const VertexId w : g.Neighbors(v)) {
            Word missing = 0;
            for (size_t x = 0; x < words; ++x) {
              acc[x] |= at(cur, w)[x];
              acc_ql[x] |= at(cur_ql, w)[x];
              missing |= want[x] & ~acc_ql[x];
            }
            if (missing == 0) break;
          }
          Word hit = 0;
          for (size_t x = 0; x < words; ++x) {
            at(next, v)[x] = acc[x] & want[x];
            at(next_ql, v)[x] = acc_ql[x] & want[x];
            hit |= at(next, v)[x];
          }
          if (hit == 0) continue;
          settle(v, depth);
          out.push_back(v);
        }
      });
      for (const std::vector<VertexId>& out : block_reached) {
        reached.insert(reached.end(), out.begin(), out.end());
      }
    } else {
      for (const VertexId u : frontier) {
        for (const VertexId v : g.Neighbors(u)) {
          Word before = 0;
          Word after = 0;
          for (size_t x = 0; x < words; ++x) {
            const Word unseen = ~at(seen, v)[x];
            before |= at(next, v)[x];
            at(next, v)[x] |= at(cur, u)[x] & unseen;
            at(next_ql, v)[x] |= at(cur_ql, u)[x] & unseen;
            after |= at(next, v)[x];
          }
          if (before == 0 && after != 0) reached.push_back(v);
        }
      }
      for (const VertexId v : reached) settle(v, depth);
    }
    // Landmarks reached along a QL lane: one meta-edge per lane, listed in
    // that lane's column, and QN in every lane from here on.
    for (LandmarkIndex j = 0; j < k; ++j) {
      Word* nq = at(next_ql, labeling->LandmarkVertex(j));
      for (size_t x = 0; x < words; ++x) {
        for (Word b = nq[x]; b != 0; b &= b - 1) {
          const LandmarkIndex i = LowestLane(x, b);
          (*meta)[i].push_back(MetaEdge{i, j, depth});
        }
        nq[x] = 0;
      }
    }
    // The spent level's lanes are the next level's zeroed targets.
    for (const VertexId u : frontier) {
      std::fill_n(at(cur, u), words, 0);
      std::fill_n(at(cur_ql, u), words, 0);
    }
    cur.swap(next);
    cur_ql.swap(next_ql);
    frontier.swap(reached);
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

LabelingScheme BuildLabelingScheme(const Graph& g,
                                   const std::vector<VertexId>& landmarks,
                                   size_t num_threads) {
  LabelingScheme scheme;
  scheme.labeling = PathLabeling(g.NumVertices(), landmarks);
  const auto k = static_cast<uint32_t>(landmarks.size());
  std::vector<std::vector<MetaEdge>> meta(k);
  if (k <= 32) {
    LabelAllLandmarks<uint32_t, 1>(g, num_threads, &scheme.labeling, &meta);
  } else if (k <= 64) {
    LabelAllLandmarks<uint64_t, 1>(g, num_threads, &scheme.labeling, &meta);
  } else if (k <= 128) {
    LabelAllLandmarks<uint64_t, 2>(g, num_threads, &scheme.labeling, &meta);
  } else {
    LabelAllLandmarks<uint64_t, 0>(g, num_threads, &scheme.labeling, &meta);
  }
  scheme.meta = AssembleMetaGraph(
      k, [&](LandmarkIndex i) -> std::span<const MetaEdge> { return meta[i]; });
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
