// QueryBatch searcher-pool exception safety: the RAII SearcherLease must
// return every checked-out GuidedSearcher to the pool even when a query
// throws mid-batch (e.g. an allocation failure surfacing through
// ParallelFor's inline worker). Before the guard, the unwound checkout
// silently shrank the pool, so every later batch paid full searcher
// reconstruction.

#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

QbsIndex BuildSmallIndex(Graph& g) {
  QbsOptions options;
  options.num_landmarks = 8;
  return QbsIndex::Build(g, options);
}

// A query that throws between checkout and checkin must not shrink the
// pool: the lease destructor runs during unwinding and checks everything
// back in.
TEST(QueryBatchThrowTest, ThrowingQueryReturnsSearchersToPool) {
  Graph g = BarabasiAlbert(300, 3, 9);
  QbsIndex index = BuildSmallIndex(g);

  // Populate the pool.
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : SampleQueryPairs(g, 32, 9)) {
    requests.emplace_back(u, v);
  }
  QbsIndex::BatchOptions four;
  four.num_threads = 4;
  index.QueryBatch(requests, four);
  const size_t pool_before = index.BatchSearcherPoolSize();
  ASSERT_GT(pool_before, 0u);

  bool thrown = false;
  try {
    QbsIndex::SearcherLease lease(index, 3);
    ASSERT_EQ(lease.size(), 3u);
    // Checked out: the pool shrank by what it could supply.
    EXPECT_LT(index.BatchSearcherPoolSize(), pool_before);
    // Run a real query on a leased searcher, then fail "mid-batch".
    lease[0].Query(requests[0].u, requests[0].v);
    throw std::runtime_error("query failed mid-batch");
  } catch (const std::runtime_error&) {
    thrown = true;
  }
  ASSERT_TRUE(thrown);
  // Everything the lease held is back (including the freshly built
  // searchers the pool could not supply).
  EXPECT_GE(index.BatchSearcherPoolSize(), pool_before);
}

// Steady state: repeated batches neither shrink nor unboundedly grow the
// pool, and results stay correct.
TEST(QueryBatchThrowTest, PoolStableAcrossBatches) {
  Graph g = BarabasiAlbert(400, 3, 10);
  QbsIndex index = BuildSmallIndex(g);
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : SampleQueryPairs(g, 64, 10)) {
    requests.emplace_back(u, v);
  }
  QbsIndex::BatchOptions four;
  four.num_threads = 4;
  const auto first = index.QueryBatch(requests, four);
  const size_t pool_after_first = index.BatchSearcherPoolSize();
  ASSERT_GT(pool_after_first, 0u);
  for (int round = 0; round < 3; ++round) {
    const auto batch = index.QueryBatch(requests, four);
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(SameAnswer(batch[i], first[i]))
          << "round " << round << " pair " << i;
    }
    EXPECT_EQ(index.BatchSearcherPoolSize(), pool_after_first)
        << "round " << round;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(index.Query({requests[i].u, requests[i].v}).spg, first[i].spg);
  }
}

}  // namespace
}  // namespace qbs
