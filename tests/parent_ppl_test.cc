#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "baselines/parent_ppl.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

// The parent set of every entry of every vertex equals the neighbours one
// BFS step closer to the entry's landmark.
void ExpectParentsMatchBfs(const Graph& g, const ParentPplIndex& index) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& label = index.ppl().Label(v);
    for (size_t j = 0; j < label.size(); ++j) {
      const auto dist =
          BfsDistances(g, index.ppl().LandmarkVertex(label[j].rank));
      std::vector<VertexId> want;
      if (label[j].dist > 0) {
        for (VertexId w : g.Neighbors(v)) {
          if (dist[w] == label[j].dist - 1) want.push_back(w);
        }
      }
      const auto parents = index.Parents(v, j);
      EXPECT_EQ(std::vector<VertexId>(parents.begin(), parents.end()), want)
          << "v=" << v << " rank=" << label[j].rank;
    }
  }
}

TEST(ParentPplTest, Figure3Queries) {
  Graph g = testing::Figure3Graph();
  auto index = ParentPplIndex::Build(g);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->ppl().QueryDistance(2, 6), 4u);
  EXPECT_EQ(index->QuerySpg(2, 6), SpgByDoubleBfs(g, 2, 6));
}

TEST(ParentPplTest, ParentsAreOneStepCloser) {
  Graph g = BarabasiAlbert(150, 2, 13);
  auto index = ParentPplIndex::Build(g);
  ASSERT_TRUE(index.has_value());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& label = index->ppl().Label(v);
    for (size_t j = 0; j < label.size(); ++j) {
      const PplEntry& e = label[j];
      const auto parents = index->Parents(v, j);
      if (e.dist == 0) {
        EXPECT_TRUE(parents.empty());
        continue;
      }
      const VertexId r = index->ppl().LandmarkVertex(e.rank);
      const auto dist = BfsDistances(g, r);
      EXPECT_FALSE(parents.empty());
      for (VertexId w : parents) {
        EXPECT_TRUE(g.HasEdge(v, w));
        EXPECT_EQ(dist[w], e.dist - 1);
      }
    }
  }
}

TEST(ParentPplTest, ParentSetsAreComplete) {
  // Every neighbour one step closer to the landmark must be recorded —
  // this is what distinguishes the paper's all-parents variant from PLL's
  // single parent, and what pruned-depth-only derivation would get wrong.
  Graph g = WattsStrogatz(120, 4, 0.3, 14);
  auto index = ParentPplIndex::Build(g);
  ASSERT_TRUE(index.has_value());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto& label = index->ppl().Label(v);
    for (size_t j = 0; j < label.size(); ++j) {
      const PplEntry& e = label[j];
      if (e.dist == 0) continue;
      const auto dist = BfsDistances(g, index->ppl().LandmarkVertex(e.rank));
      size_t expected = 0;
      for (VertexId w : g.Neighbors(v)) {
        if (dist[w] == e.dist - 1) ++expected;
      }
      EXPECT_EQ(index->Parents(v, j).size(), expected) << "v=" << v;
    }
  }
}

TEST(ParentPplTest, LargerThanPpl) {
  Graph g = BarabasiAlbert(200, 3, 15);
  auto ppl = PplIndex::Build(g);
  auto parent = ParentPplIndex::Build(g);
  ASSERT_TRUE(ppl.has_value());
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(parent->ppl().NumEntries(), ppl->NumEntries());
  EXPECT_GT(parent->SizeBytes(), ppl->SizeBytes());
}

TEST(ParentPplTest, Budgets) {
  Graph g = BarabasiAlbert(1000, 3, 16);
  PplBuildOptions options;
  options.time_budget_seconds = 0.0;
  BuildStatus status;
  EXPECT_FALSE(ParentPplIndex::Build(g, options, &status).has_value());
  EXPECT_EQ(status, BuildStatus::kTimeBudgetExceeded);

  options = {};
  options.max_label_entries = 50;
  EXPECT_FALSE(ParentPplIndex::Build(g, options, &status).has_value());
  EXPECT_EQ(status, BuildStatus::kMemoryBudgetExceeded);

  // The cap counts entries plus parents: a cap the entries fit under but
  // the parents overflow lets PPL build and stops ParentPPL.
  const auto full = ParentPplIndex::Build(g);
  ASSERT_TRUE(full.has_value());
  const uint64_t entries = full->ppl().NumEntries();
  ASSERT_GT(full->NumParents(), 1u);
  options.max_label_entries = entries + full->NumParents() / 2;
  status = BuildStatus::kOk;
  EXPECT_TRUE(PplIndex::Build(g, options, &status).has_value());
  EXPECT_EQ(status, BuildStatus::kOk);
  EXPECT_FALSE(ParentPplIndex::Build(g, options, &status).has_value());
  EXPECT_EQ(status, BuildStatus::kMemoryBudgetExceeded);
}

struct SweepParam {
  int family;
  uint64_t seed;
};

class ParentPplOracleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ParentPplOracleSweep, MatchesOracle) {
  const auto& p = GetParam();
  Graph g;
  switch (p.family) {
    case 0:
      g = BarabasiAlbert(220, 2, p.seed);
      break;
    case 1:
      g = LargestComponent(ErdosRenyi(220, 400, p.seed)).graph;
      break;
    case 2:
      g = WattsStrogatz(220, 4, 0.25, p.seed);
      break;
    default:
      g = GridGraph(11, 13);
      break;
  }
  auto index = ParentPplIndex::Build(g);
  ASSERT_TRUE(index.has_value());
  ExpectParentsMatchBfs(g, *index);
  const auto pairs = SampleQueryPairs(g, 50, p.seed + 77);
  for (const auto& [u, v] : pairs) {
    ASSERT_EQ(index->QuerySpg(u, v), SpgByDoubleBfs(g, u, v))
        << "u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParentPplOracleSweep,
    ::testing::Values(SweepParam{0, 1}, SweepParam{0, 2}, SweepParam{1, 3},
                      SweepParam{1, 4}, SweepParam{2, 5}, SweepParam{2, 6},
                      SweepParam{3, 7}));

}  // namespace
}  // namespace qbs
