#include <thread>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

std::vector<QueryRequest> ToRequests(const std::vector<QueryPair>& pairs,
                                     QueryMode mode = QueryMode::kSpg) {
  std::vector<QueryRequest> out;
  out.reserve(pairs.size());
  for (const auto& p : pairs) out.emplace_back(p.u, p.v, mode);
  return out;
}

QbsIndex::BatchOptions Threads(size_t n) {
  QbsIndex::BatchOptions options;
  options.num_threads = n;
  return options;
}

TEST(QueryBatchTest, MatchesSequentialQueries) {
  Graph g = BarabasiAlbert(800, 3, 3);
  QbsOptions options;
  options.num_landmarks = 12;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto requests = ToRequests(SampleQueryPairs(g, 300, 5));
  const auto batch = index.QueryBatch(requests, Threads(8));
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(batch[i].spg, index.Query({requests[i].u, requests[i].v}).spg)
        << "i=" << i;
  }
}

TEST(QueryBatchTest, ThreadCountInvariant) {
  Graph g = BarabasiAlbert(400, 2, 7);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto requests = ToRequests(SampleQueryPairs(g, 150, 8));
  const auto one = index.QueryBatch(requests, Threads(1));
  const auto many = index.QueryBatch(requests, Threads(6));
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(SameAnswer(one[i], many[i])) << "i=" << i;
  }
}

TEST(QueryBatchTest, DistanceModeDropsEdges) {
  Graph g = BarabasiAlbert(400, 3, 11);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto pairs = SampleQueryPairs(g, 100, 12);
  const auto spg = index.QueryBatch(ToRequests(pairs, QueryMode::kSpg), {});
  const auto dist =
      index.QueryBatch(ToRequests(pairs, QueryMode::kDistance), {});
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(dist[i].distance(), spg[i].distance()) << "i=" << i;
    EXPECT_TRUE(dist[i].spg.edges.empty()) << "i=" << i;
  }
}

TEST(QueryBatchTest, BudgetSemantics) {
  Graph g = PathGraph(50);  // distances are exactly |u - v|
  QbsOptions options;
  options.num_landmarks = 4;
  QbsIndex index = QbsIndex::Build(g, options);
  std::vector<QueryRequest> requests;
  requests.emplace_back(0, 3, QueryMode::kSpg, /*budget_in=*/5);   // within
  requests.emplace_back(0, 5, QueryMode::kSpg, /*budget_in=*/5);   // exactly
  requests.emplace_back(0, 40, QueryMode::kSpg, /*budget_in=*/5);  // beyond
  const auto batch = index.QueryBatch(requests, {});

  EXPECT_EQ(batch[0].distance(), 3u);
  EXPECT_FALSE(batch[0].spg.edges.empty());
  EXPECT_EQ(batch[0].flags, 0u);

  EXPECT_EQ(batch[1].distance(), 5u);
  EXPECT_EQ(batch[1].flags, 0u);

  // Beyond-budget answers carry no edges; either the labels certified the
  // bound up front (pruned, distance unknown) or the search resolved it
  // (exact distance, flagged exceeded).
  EXPECT_TRUE(batch[2].spg.edges.empty());
  EXPECT_NE(batch[2].flags & (kResponseFlagBudgetPruned |
                              kResponseFlagBudgetExceeded),
            0u);
  if (batch[2].flags & kResponseFlagBudgetExceeded) {
    EXPECT_EQ(batch[2].distance(), 40u);
  } else {
    EXPECT_FALSE(batch[2].spg.Connected());  // distance unknown
  }
}

TEST(QueryBatchTest, EmptyAndSingleton) {
  Graph g = PathGraph(10);
  QbsOptions options;
  options.num_landmarks = 2;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_TRUE(index.QueryBatch({}, {}).empty());
  const auto single = index.QueryBatch({QueryRequest(0, 9)}, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].spg, SpgByDoubleBfs(g, 0, 9));
}

TEST(QueryBatchTest, ConcurrentBatchesOnOneIndex) {
  // Concurrent QueryBatch calls must not share searchers (the pool is
  // checkout/checkin under a lock).
  Graph g = BarabasiAlbert(600, 3, 9);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex index = QbsIndex::Build(g, options);
  const auto requests = ToRequests(SampleQueryPairs(g, 200, 3));
  const auto expected = index.QueryBatch(requests, Threads(1));
  std::vector<std::vector<QueryResponse>> got(4);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < got.size(); ++t) {
    callers.emplace_back(
        [&, t] { got[t] = index.QueryBatch(requests, Threads(3)); });
  }
  for (auto& c : callers) c.join();
  for (const auto& result : got) {
    ASSERT_EQ(result.size(), expected.size());
    for (size_t i = 0; i < result.size(); ++i) {
      ASSERT_TRUE(SameAnswer(result[i], expected[i])) << "i=" << i;
    }
  }
}

TEST(QueryBatchTest, DuplicateAndSelfPairs) {
  Graph g = CycleGraph(20);
  QbsOptions options;
  options.num_landmarks = 3;
  QbsIndex index = QbsIndex::Build(g, options);
  const std::vector<QueryRequest> requests{
      QueryRequest(0, 10), QueryRequest(0, 10), QueryRequest(5, 5),
      QueryRequest(10, 0)};
  const auto batch = index.QueryBatch(requests, {});
  EXPECT_TRUE(SameAnswer(batch[0], batch[1]));
  EXPECT_EQ(batch[2].distance(), 0u);
  EXPECT_EQ(batch[3].distance(), batch[0].distance());
}

}  // namespace
}  // namespace qbs
