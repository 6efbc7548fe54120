#include "core/qbs_index.h"

#include <algorithm>
#include <iostream>
#include <utility>

#include "core/serialization.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qbs {

QbsIndex QbsIndex::Build(const Graph& g, const QbsOptions& options) {
  return BuildWithLandmarks(g, SelectLandmarks(g, options.num_landmarks),
                            options);
}

QbsIndex QbsIndex::BuildWithLandmarks(const Graph& g,
                                      std::vector<VertexId> landmarks,
                                      const QbsOptions& options) {
  QbsIndex index;
  index.g_ = &g;

  WallTimer timer;
  index.scheme_ = std::make_unique<LabelingScheme>(
      BuildLabelingScheme(g, landmarks, options.num_threads));
  index.timings_.labeling_seconds = timer.ElapsedSeconds();
  index.timings_.delta_seconds = index.FinishFromScheme(options.num_threads);
  return index;
}

std::optional<QbsIndex> QbsIndex::LoadFromFile(const Graph& g,
                                               const std::string& path,
                                               const QbsOptions& options) {
  auto scheme = LoadLabelingScheme(path, g.NumVertices());
  if (!scheme.has_value()) return std::nullopt;
  // A scheme built on another numbering of g's vertices passes every format
  // check. Each landmark's neighbours sit at depth 1 under it, so on the
  // graph the scheme was built on they carry a distance-1 label (or a
  // weight-1 meta-edge) to it; one label read per neighbour checks that.
  const PathLabeling& labeling = scheme->labeling;
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    const VertexId r = labeling.LandmarkVertex(i);
    for (const VertexId w : g.Neighbors(r)) {
      const int32_t j = labeling.LandmarkRank(w);
      const uint32_t hops =
          j >= 0 ? scheme->meta.EdgeWeight(i, static_cast<LandmarkIndex>(j))
                 : labeling.Get(w, i);
      if (hops != 1) {
        std::cerr << "LoadFromFile: " << path << " was not built on this "
                  << "graph: landmark " << r << "'s neighbour " << w
                  << " is not one hop from it in the index\n";
        return std::nullopt;
      }
    }
  }
  QbsIndex index;
  index.g_ = &g;
  index.scheme_ = std::make_unique<LabelingScheme>(std::move(*scheme));
  index.timings_.delta_seconds = index.FinishFromScheme(options.num_threads);
  return index;
}

double QbsIndex::FinishFromScheme(size_t num_threads) {
  WallTimer timer;
  *delta_ = DeltaCache::Build(*g_, scheme_->labeling, scheme_->meta,
                              num_threads);
  const double delta_seconds = timer.ElapsedSeconds();
  *adjacency_ = LandmarkAdjacency::Build(*g_, scheme_->labeling);
  return delta_seconds;
}

bool QbsIndex::Save(const std::string& path) const {
  return SaveLabelingScheme(*scheme_, path);
}

QueryResponse QbsIndex::Query(const QueryRequest& request) const {
  SearcherLease lease(*this, 1);
  return Execute(lease[0], request);
}

QueryResponse QbsIndex::Execute(GuidedSearcher& searcher,
                                const QueryRequest& request,
                                const LabelBound* certify) const {
  QBS_CHECK_LT(request.u, g_->NumVertices());
  QBS_CHECK_LT(request.v, g_->NumVertices());
  QueryResponse response;
  if (request.budget > 0 && request.u != request.v) {
    // One O(|R|) label-row scan can certify d > budget before any search
    // runs; the response then reports "unknown, provably beyond budget".
    const LabelBound bound =
        certify != nullptr ? *certify
                           : ComputeLabelBound(scheme_->labeling,
                                               scheme_->meta, request.u,
                                               request.v);
    if (bound.lower > request.budget) {
      response.spg.u = request.u;
      response.spg.v = request.v;
      response.flags |= kResponseFlagBudgetPruned;
      return response;
    }
  }
  // No edges beyond the budget, and none in distance mode: the searcher
  // stops once the distance is known.
  uint32_t edges_within = request.budget > 0 ? request.budget : kUnreachable;
  if (request.mode == QueryMode::kDistance) edges_within = 0;
  response.spg =
      searcher.Query(request.u, request.v, &response.stats, edges_within);
  if (request.budget > 0 && response.spg.Connected() &&
      response.spg.distance > request.budget) {
    response.flags |= kResponseFlagBudgetExceeded;
  }
  return response;
}

QbsIndex::SearcherLease::SearcherLease(const QbsIndex& index, size_t count)
    : index_(index) {
  searchers_.reserve(count);
  {
    MutexLock lock(*index_.batch_searchers_mu_);
    while (!index_.batch_searchers_.empty() && searchers_.size() < count) {
      searchers_.push_back(std::move(index_.batch_searchers_.back()));
      index_.batch_searchers_.pop_back();
    }
  }
  try {
    while (searchers_.size() < count) {
      searchers_.push_back(std::make_unique<GuidedSearcher>(
          *index_.g_, index_.scheme_->labeling, index_.scheme_->meta,
          *index_.delta_, *index_.adjacency_));
    }
  } catch (...) {
    // A failed top-up (searcher construction is O(|V|) of allocation) must
    // not eat what was already checked out: the destructor will not run
    // for a throwing constructor, so check everything back in here.
    MutexLock lock(*index_.batch_searchers_mu_);
    for (auto& s : searchers_) {
      index_.batch_searchers_.push_back(std::move(s));
    }
    throw;
  }
}

QbsIndex::SearcherLease::~SearcherLease() {
  MutexLock lock(*index_.batch_searchers_mu_);
  for (auto& s : searchers_) {
    index_.batch_searchers_.push_back(std::move(s));
  }
}

size_t QbsIndex::BatchSearcherPoolSize() const {
  MutexLock lock(*batch_searchers_mu_);
  return batch_searchers_.size();
}

std::vector<QueryResponse> QbsIndex::QueryBatch(
    const std::vector<QueryRequest>& requests,
    const BatchOptions& options) const {
  std::vector<QueryResponse> results(requests.size());
  const size_t workers = std::min(EffectiveThreads(options.num_threads),
                                  std::max<size_t>(requests.size(), 1));
  // One searcher per worker, checked out of the persistent pool (topped up
  // to `workers` if needed); all share the graph, labelling, meta-graph,
  // Δ cache and landmark adjacency bits (read-only). The RAII lease
  // keeps concurrent QueryBatch calls from ever sharing a searcher AND
  // returns every searcher when a query throws mid-batch, so the pool
  // never shrinks across failed batches.
  SearcherLease lease(*this, workers);
  ParallelFor(requests.size(), workers, [&](size_t i, size_t worker) {
    results[i] = Execute(lease[worker], requests[i]);
  });
  return results;
}

void QbsIndex::EnableUpdates(Graph* mutable_graph, size_t /*num_threads*/) {
  QBS_CHECK(mutable_graph == g_);  // the very graph the index was built on
  mutable_g_ = mutable_graph;
}

UpdateStats QbsIndex::ApplyUpdates(const GraphDelta& delta) {
  QBS_CHECK(mutable_g_ != nullptr);  // EnableUpdates() first
  const NetChanges net = ComputeNetChanges(*g_, delta);
  UpdateStats stats;
  stats.applied_inserts = net.inserts.size();
  stats.applied_deletes = net.deletes.size();
  stats.noop_updates = net.noop_inserts + net.noop_deletes;
  stats.invalid_updates = net.invalid;
  if (net.EmptyNet()) return stats;  // nothing changes in the graph
  // The repair derives the OLD depths from the pre-edit scheme and never
  // reads the old adjacency — so the graph swaps in first.
  // Move-assignment keeps *g_'s address stable, which every live searcher
  // references.
  *mutable_g_ = ApplyNetChanges(*g_, net);
  stats.repaired_columns =
      ApplyNetToLabeling(*g_, net, &scheme_->labeling, &scheme_->meta);
  // Δ and the landmark adjacency bits are functions of (G, scheme): derive
  // them as Build does. Edits run on all hardware threads, and timings()
  // keeps describing the offline phase.
  FinishFromScheme(/*num_threads=*/0);
  return stats;
}

}  // namespace qbs
