#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/landmark_selection.h"
#include "core/qbs_index.h"
#include "gen/generators.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

std::vector<LandmarkStrategy> AllStrategies() {
  return {LandmarkStrategy::kHighestDegree, LandmarkStrategy::kRandom,
          LandmarkStrategy::kDegreeWeightedRandom,
          LandmarkStrategy::kApproxCloseness};
}

TEST(LandmarkStrategiesTest, AllProduceDistinctValidVertices) {
  Graph g = BarabasiAlbert(500, 3, 1);
  for (LandmarkStrategy s : AllStrategies()) {
    const auto landmarks = SelectLandmarks(g, 25, s, 7);
    ASSERT_EQ(landmarks.size(), 25u) << LandmarkStrategyName(s);
    auto sorted = landmarks;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
        << LandmarkStrategyName(s);
    for (VertexId v : landmarks) EXPECT_LT(v, g.NumVertices());
  }
}

TEST(LandmarkStrategiesTest, DeterministicForSeed) {
  Graph g = WattsStrogatz(400, 4, 0.2, 2);
  for (LandmarkStrategy s : AllStrategies()) {
    EXPECT_EQ(SelectLandmarks(g, 10, s, 42), SelectLandmarks(g, 10, s, 42))
        << LandmarkStrategyName(s);
  }
}

TEST(LandmarkStrategiesTest, DegreeWeightedFavorsHubs) {
  Graph g = StarGraph(2000);
  // The hub holds half of all edge endpoints; sampling 10 landmarks by
  // degree weight must include it (probability of missing ~ 2^-10 per
  // draw, and the sampler retries).
  const auto landmarks = SelectLandmarks(
      g, 10, LandmarkStrategy::kDegreeWeightedRandom, 3);
  EXPECT_NE(std::find(landmarks.begin(), landmarks.end(), 0u),
            landmarks.end());
}

TEST(LandmarkStrategiesTest, ClosenessPicksCenterOfPath) {
  Graph g = PathGraph(101);
  const auto landmarks =
      SelectLandmarks(g, 1, LandmarkStrategy::kApproxCloseness, 5);
  ASSERT_EQ(landmarks.size(), 1u);
  // The path's closeness centre is near the middle; sampled closeness
  // should land well away from the endpoints.
  EXPECT_GT(landmarks[0], 15u);
  EXPECT_LT(landmarks[0], 85u);
}

TEST(LandmarkStrategiesTest, StrategyNameCovered) {
  for (LandmarkStrategy s : AllStrategies()) {
    EXPECT_STRNE(LandmarkStrategyName(s), "unknown");
  }
}

TEST(LandmarkStrategiesTest, DegenerateGraphsDoNotHang) {
  // Graph with many isolated vertices: degree-weighted sampling must fall
  // back instead of spinning on rejections.
  Graph g = Graph::FromEdges(100, {{0, 1}});
  const auto landmarks = SelectLandmarks(
      g, 50, LandmarkStrategy::kDegreeWeightedRandom, 1);
  EXPECT_EQ(landmarks.size(), 50u);
}

// Every strategy yields a correct index (exactness is strategy-independent;
// Lemma 5.2 fixes the scheme once R is fixed).
class StrategyCorrectness
    : public ::testing::TestWithParam<LandmarkStrategy> {};

TEST_P(StrategyCorrectness, QueriesMatchOracle) {
  Graph g = BarabasiAlbert(300, 2, 11);
  QbsOptions options;
  options.num_landmarks = 12;
  options.landmark_strategy = GetParam();
  QbsIndex index = QbsIndex::Build(g, options);
  for (const auto& [u, v] : SampleQueryPairs(g, 50, 13)) {
    ASSERT_EQ(index.Query({u, v}).spg, SpgByDoubleBfs(g, u, v))
        << LandmarkStrategyName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategyCorrectness,
    ::testing::Values(LandmarkStrategy::kHighestDegree,
                      LandmarkStrategy::kRandom,
                      LandmarkStrategy::kDegreeWeightedRandom,
                      LandmarkStrategy::kApproxCloseness));

}  // namespace
}  // namespace qbs
