#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/components.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

TEST(QueryWorkloadTest, SamplerDeterministicAndValid) {
  Graph g = BarabasiAlbert(200, 2, 1);
  const auto a = SampleQueryPairs(g, 100, 7);
  const auto b = SampleQueryPairs(g, 100, 7);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_NE(a[i].u, a[i].v);
    EXPECT_LT(a[i].u, g.NumVertices());
    EXPECT_LT(a[i].v, g.NumVertices());
  }
}

TEST(QueryWorkloadTest, DistanceDistributionSums) {
  Graph g = PathGraph(10);
  std::vector<QueryPair> pairs{{0, 1}, {0, 9}, {3, 6}, {2, 4}};
  const auto dist = ComputeDistanceDistribution(g, pairs);
  EXPECT_EQ(dist.total, 4u);
  EXPECT_EQ(dist.disconnected, 0u);
  EXPECT_EQ(dist.counts[1], 1u);
  EXPECT_EQ(dist.counts[9], 1u);
  EXPECT_EQ(dist.counts[3], 1u);
  EXPECT_EQ(dist.counts[2], 1u);
  EXPECT_DOUBLE_EQ(dist.Mean(), (1 + 9 + 3 + 2) / 4.0);
  EXPECT_DOUBLE_EQ(dist.FractionAt(3), 0.25);
  EXPECT_DOUBLE_EQ(dist.FractionAt(4), 0.0);
}

TEST(QueryWorkloadTest, DisconnectedCounted) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  std::vector<QueryPair> pairs{{0, 1}, {0, 2}, {1, 3}};
  const auto dist = ComputeDistanceDistribution(g, pairs);
  EXPECT_EQ(dist.disconnected, 2u);
  EXPECT_EQ(dist.counts[1], 1u);
}

TEST(DatasetRegistryTest, TwelveDatasetsOrderedLikeTable1) {
  std::vector<std::string> table1;
  for (const DatasetSpec& spec : Datasets()) {
    if (!spec.abbrev.empty()) table1.push_back(spec.abbrev);
  }
  ASSERT_EQ(table1.size(), 12u);
  EXPECT_EQ(table1.front(), "DO");
  EXPECT_EQ(table1.back(), "CW");
  EXPECT_EQ(DatasetByAbbrev("TW").name, "twitter");
}

TEST(DatasetRegistryTest, SmallScaleDatasetsAreConnectedAndDeterministic) {
  // Generate every dataset at a tiny scale; each must be connected (largest
  // component is extracted) and deterministic.
  for (const auto& spec : Datasets()) {
    if (spec.abbrev.empty()) continue;  // no stand-in
    Graph a = MakeDataset(spec, 0.05);
    Graph b = MakeDataset(spec, 0.05);
    EXPECT_GT(a.NumVertices(), 50u) << spec.abbrev;
    EXPECT_EQ(ConnectedComponents(a).num_components, 1u) << spec.abbrev;
    EXPECT_EQ(a.EdgeList(), b.EdgeList()) << spec.abbrev;
  }
}

TEST(DatasetRegistryTest, RegimesMatchPaper) {
  // Hub-dominated stand-ins must have much higher max degree relative to
  // the mean than the Friendster (even-degree) stand-in.
  Graph tw = MakeDataset(DatasetByAbbrev("TW"), 0.1);
  Graph fr = MakeDataset(DatasetByAbbrev("FR"), 0.1);
  const double tw_skew = static_cast<double>(tw.MaxDegree()) /
                         std::max(1.0, tw.AverageDegree());
  const double fr_skew = static_cast<double>(fr.MaxDegree()) /
                         std::max(1.0, fr.AverageDegree());
  EXPECT_GT(tw_skew, 4 * fr_skew);
}

TEST(DatasetRegistryTest, DensityOrderingPreserved) {
  // Orkut's stand-in must be denser (higher average degree) than Douban's,
  // mirroring Table 1.
  Graph orkut = MakeDataset(DatasetByAbbrev("OR"), 0.05);
  Graph douban = MakeDataset(DatasetByAbbrev("DO"), 0.05);
  EXPECT_GT(orkut.AverageDegree(), 4 * douban.AverageDegree());
}

}  // namespace
}  // namespace qbs
