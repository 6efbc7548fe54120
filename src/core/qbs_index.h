// QbsIndex — the public facade of the library.
//
// Usage:
//
//   Graph g = ...;                       // must outlive the index
//   QbsIndex index = QbsIndex::Build(g, {.num_landmarks = 20});
//   ShortestPathGraph spg = index.Query({u, v}).spg;
//
// Build() runs the offline phase (labelling scheme construction, Algorithm
// 2, optionally in parallel = the paper's QbS-P, then the Δ precomputation
// of §5.2, which every index carries); Query() runs the online phase
// (sketching, Algorithm 3, then guided searching, Algorithm 4) on a
// searcher leased from the index's pool, so it is const and safe to call
// from many threads at once (QueryBatch fans a vector of requests out the
// same way). Neither is safe during ApplyUpdates(), after which the index
// is exact for the edited graph. Construction allocates no searcher: the
// pool grows on the first query (BatchSearcherPoolSize()).

#ifndef QBS_CORE_QBS_INDEX_H_
#define QBS_CORE_QBS_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/delta_cache.h"
#include "core/guided_search.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/meta_graph.h"
#include "core/query_api.h"
#include "core/search_stats.h"
#include "core/sketch.h"
#include "core/updatable_index.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/spg.h"
#include "util/sync.h"

namespace qbs {

struct QbsOptions {
  /// |R|; the paper's default is 20 (§6.1). Clamped to |V|.
  uint32_t num_landmarks = 20;
  /// Labelling construction threads: 1 = sequential QbS, 0 = all hardware
  /// threads (QbS-P), otherwise the exact count.
  size_t num_threads = 1;
};

struct QbsBuildTimings {
  double labeling_seconds = 0.0;
  double delta_seconds = 0.0;
};

class QbsIndex {
 public:
  /// Builds an index over `g`, which must outlive the index.
  static QbsIndex Build(const Graph& g, const QbsOptions& options = {});

  /// As Build(), with caller-chosen landmarks (distinct vertex ids).
  static QbsIndex BuildWithLandmarks(const Graph& g,
                                     std::vector<VertexId> landmarks,
                                     const QbsOptions& options = {});

  /// Loads a labelling scheme previously written by Save() and finishes the
  /// index against `g` (which must be the same graph the scheme was built
  /// on; vertex-count mismatches are rejected). Rebuilds Δ on
  /// options.num_threads. Returns std::nullopt on I/O or format errors.
  static std::optional<QbsIndex> LoadFromFile(const Graph& g,
                                              const std::string& path,
                                              const QbsOptions& options = {});

  /// Persists the labelling scheme (labels + meta-graph; Δ is rebuilt on
  /// load), atomically: on failure any previous file at `path` is left
  /// as it was. Returns false on I/O failure.
  bool Save(const std::string& path) const;

  QbsIndex(QbsIndex&&) = default;
  QbsIndex& operator=(QbsIndex&&) = default;

  /// Answers one request (core/query_api.h) — mode, budget, and flags
  /// included — exactly, on a searcher leased from the pool for the call.
  /// Safe to call concurrently with itself and with QueryBatch; not during
  /// ApplyUpdates().
  QueryResponse Query(const QueryRequest& request) const;

  /// Tuning knobs for QueryBatch.
  struct BatchOptions {
    /// 0 = all hardware threads.
    size_t num_threads = 0;
  };

  /// Answers many requests in parallel. Workers share the index's
  /// read-only state and lease searchers from the same pool as Query();
  /// each searcher blocks the landmarks in its own scratch to search G⁻,
  /// so no second graph is stored. Results align with
  /// `requests`. Same thread-safety contract as Query().
  std::vector<QueryResponse> QueryBatch(
      const std::vector<QueryRequest>& requests,
      const BatchOptions& options) const;
  std::vector<QueryResponse> QueryBatch(
      const std::vector<QueryRequest>& requests) const {
    return QueryBatch(requests, BatchOptions());
  }

  /// Executes one request on a caller-managed searcher (one held via
  /// SearcherLease); the primitive Query() and QueryBatch are built on.
  /// Thread-safe as long as each searcher is used by one thread at a time.
  /// `certify`, if non-null, is the request pair's precomputed label
  /// bound — ComputeLabelBound(labeling, meta, u, v) — and is read only by
  /// the budget check, in place of its own label scan; a request without
  /// a budget never reads it. Query() and QueryBatch pass null. The
  /// parameter is kept because bench_e2e (frozen by BENCHMARK.json) passes
  /// it.
  QueryResponse Execute(GuidedSearcher& searcher, const QueryRequest& request,
                        const LabelBound* certify = nullptr) const;

  /// RAII checkout of `count` searchers from the index's pool, topping
  /// the pool up with freshly constructed ones as needed. The destructor
  /// returns every searcher, so a query that throws mid-batch (ParallelFor
  /// rethrows it on the calling thread once every worker has stopped)
  /// unwinds without shrinking the pool.
  class SearcherLease {
   public:
    SearcherLease(const QbsIndex& index, size_t count);
    ~SearcherLease();
    SearcherLease(const SearcherLease&) = delete;
    SearcherLease& operator=(const SearcherLease&) = delete;

    GuidedSearcher& operator[](size_t i) { return *searchers_[i]; }
    size_t size() const { return searchers_.size(); }

   private:
    const QbsIndex& index_;
    std::vector<std::unique_ptr<GuidedSearcher>> searchers_;
  };

  /// Searchers idle in the pool. With no query in flight: 0 until the
  /// first query, then the peak number leased at once (observability for
  /// the lease regression tests and capacity debugging).
  size_t BatchSearcherPoolSize() const;

  /// --- Dynamic updates (core/updatable_index.h). ---

  /// Switches the index into updatable mode: captures the exact per-column
  /// BFS state incremental maintenance detects against (one relabelling
  /// pass — so it also works on an index restored by LoadFromFile, whose
  /// file format carries no depth arrays). `mutable_graph` must be the very
  /// graph object the index was built on (CHECK-enforced); ApplyUpdates
  /// move-assigns the post-edit CSR into it, keeping its address — which
  /// every live searcher references — stable. |V| is fixed for the life of
  /// the index: edits are edge-level.
  void EnableUpdates(Graph* mutable_graph, size_t num_threads = 0);

  bool updates_enabled() const { return updatable_ != nullptr; }

  /// Landmark column i's stored BFS depths (kUnreachable when
  /// disconnected), kept exact across ApplyUpdates. A test hook: lets the
  /// dynamic tests hold the repair to a fresh BFS. Requires EnableUpdates().
  std::span<const uint32_t> ColumnDepthsForTesting(LandmarkIndex i) const;

  /// Applies an edit script: computes the net edge changes, splices them
  /// into the graph, repairs every label column over its changed region
  /// only, and refreshes the meta-graph and Δ cache, on all hardware
  /// threads.
  /// When this returns, the index answers every query exactly as a
  /// from-scratch build on the new graph would — bit-identically. Requires
  /// EnableUpdates().
  /// NOT thread-safe against concurrent queries: callers must quiesce query
  /// traffic (the server wraps this in a writer lock) — searcher scratch is
  /// per-query, but the labelling and graph mutate in place here.
  UpdateStats ApplyUpdates(const GraphDelta& delta);

  /// Always 0: the index stores no bit-parallel masks. Kept because
  /// bench_e2e (frozen by BENCHMARK.json) reads it.
  uint64_t BpMaskSizeBytes() const { return 0; }

  /// The graph the index was built on (read-only; useful for request
  /// validation in serving layers).
  const Graph& graph() const { return *g_; }

  /// The landmark set R, in label-index order.
  const std::vector<VertexId>& landmarks() const {
    return scheme_->labeling.landmarks();
  }
  /// The path labelling L (read-only).
  const PathLabeling& labeling() const { return scheme_->labeling; }
  /// The landmark meta-graph M (read-only).
  const MetaGraph& meta_graph() const { return scheme_->meta; }
  /// The Δ cache (one segment per meta-edge).
  const DeltaCache& delta_cache() const { return *delta_; }
  /// Wall-clock timings of the offline phase.
  const QbsBuildTimings& timings() const { return timings_; }

  /// size(L): bytes of the path labelling (Table 3).
  uint64_t LabelingSizeBytes() const {
    return scheme_->labeling.SizeBytes();
  }
  /// size(Δ): bytes of the precomputed landmark shortest path graphs
  /// (Table 3).
  uint64_t DeltaSizeBytes() const { return delta_->SizeBytes(); }
  /// Bytes of the meta-graph (edge list + APSP table).
  uint64_t MetaGraphSizeBytes() const { return scheme_->meta.SizeBytes(); }

 private:
  QbsIndex() = default;

  /// Derives what Build and LoadFromFile share from g_ and scheme_: the Δ
  /// cache. G⁻ is not stored: each searcher blocks the landmarks in its
  /// own scratch.
  void FinishFromScheme(const QbsOptions& options);

  const Graph* g_ = nullptr;  // not owned
  /// Heap-allocated so GuidedSearcher's references survive moves.
  std::unique_ptr<LabelingScheme> scheme_;
  std::unique_ptr<DeltaCache> delta_;
  /// Idle searchers, grown on demand and reused across queries (a searcher
  /// holds O(|V|) scratch; rebuilding per query would dominate). Each
  /// SearcherLease checks out what it needs under the mutex, so concurrent
  /// queries never share a searcher. Mutable: leasing is how the const
  /// query surface gets scratch. Heap-allocated because Mutex is immovable
  /// and QbsIndex is movable; the capability follows the unique_ptr, so
  /// annotations deref it.
  std::unique_ptr<Mutex> batch_searchers_mu_ =
      std::make_unique<Mutex>(LockRank::kSearcherPool);
  mutable std::vector<std::unique_ptr<GuidedSearcher>> batch_searchers_
      QBS_GUARDED_BY(*batch_searchers_mu_);
  QbsBuildTimings timings_;
  /// Set by EnableUpdates: the same object g_ points at, held mutably so
  /// ApplyUpdates can move-assign the post-edit CSR into it.
  Graph* mutable_g_ = nullptr;
  /// Per-column maintenance state; non-null iff updates are enabled.
  std::unique_ptr<UpdatableState> updatable_;
};

}  // namespace qbs

#endif  // QBS_CORE_QBS_INDEX_H_
