// End-to-end integration: every method of the paper's Table 2 comparison
// produces identical SPG answers on a registry dataset, and the QbS-P
// parallel build matches the sequential one.

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "baselines/bibfs.h"
#include "baselines/parent_ppl.h"
#include "baselines/ppl.h"
#include "core/qbs_index.h"
#include "workload/dataset_registry.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(MakeDataset(DatasetByAbbrev("DO"), 0.15));
    pairs_ = new std::vector<QueryPair>(SampleQueryPairs(*graph_, 40, 3));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete pairs_;
    graph_ = nullptr;
    pairs_ = nullptr;
  }
  static Graph* graph_;
  static std::vector<QueryPair>* pairs_;
};

Graph* IntegrationTest::graph_ = nullptr;
std::vector<QueryPair>* IntegrationTest::pairs_ = nullptr;

TEST_F(IntegrationTest, AllMethodsAgreeOnDataset) {
  const Graph& g = *graph_;
  QbsOptions options;
  options.num_landmarks = 20;
  QbsIndex qbs = QbsIndex::Build(g, options);
  BiBfs bibfs(g);
  auto ppl = PplIndex::Build(g);
  auto parent_ppl = ParentPplIndex::Build(g);
  ASSERT_TRUE(ppl.has_value());
  ASSERT_TRUE(parent_ppl.has_value());

  for (const auto& [u, v] : *pairs_) {
    const auto oracle = SpgByDoubleBfs(g, u, v);
    ASSERT_EQ(qbs.Query({u, v}).spg, oracle) << "QbS u=" << u << " v=" << v;
    ASSERT_EQ(bibfs.Query(u, v), oracle) << "BiBFS u=" << u << " v=" << v;
    ASSERT_EQ(ppl->QuerySpg(u, v), oracle) << "PPL u=" << u << " v=" << v;
    ASSERT_EQ(parent_ppl->QuerySpg(u, v), oracle)
        << "ParentPPL u=" << u << " v=" << v;
  }
}

TEST_F(IntegrationTest, ParallelBuildMatchesSequential) {
  const Graph& g = *graph_;
  QbsOptions seq;
  seq.num_landmarks = 20;
  seq.num_threads = 1;
  QbsOptions par = seq;
  par.num_threads = 0;  // QbS-P: all threads
  QbsIndex a = QbsIndex::Build(g, seq);
  QbsIndex b = QbsIndex::Build(g, par);
  EXPECT_EQ(a.labeling().NumEntries(), b.labeling().NumEntries());
  EXPECT_EQ(a.meta_graph().Edges(), b.meta_graph().Edges());
  for (const auto& [u, v] : *pairs_) {
    ASSERT_EQ(a.Query({u, v}).spg, b.Query({u, v}).spg);
  }
}

TEST_F(IntegrationTest, QbsLabelingSmallerThanGraph) {
  // The paper: "labelling sizes constructed by QbS are generally smaller
  // than the original sizes of graphs" at |R| = 20. This holds for the
  // denser datasets (Table 3; Douban itself is the exception where the
  // label matrix slightly exceeds the tiny graph).
  Graph g = MakeDataset(DatasetByAbbrev("OR"), 0.05);
  QbsOptions options;
  options.num_landmarks = 20;
  QbsIndex index = QbsIndex::Build(g, options);
  EXPECT_LT(index.LabelingSizeBytes(), g.SizeBytes());
}

TEST_F(IntegrationTest, QbsTraversesFewerEdgesThanBiBfs) {
  // §6.5: sparsification + sketch guidance reduce edges traversed.
  const Graph& g = *graph_;
  QbsOptions options;
  options.num_landmarks = 20;
  QbsIndex index = QbsIndex::Build(g, options);
  BiBfs bibfs(g);
  uint64_t qbs_scans = 0;
  uint64_t bibfs_scans = 0;
  for (const auto& [u, v] : *pairs_) {
    qbs_scans += index.Query({u, v}).stats.TotalEdgesScanned();
    uint64_t scans = 0;
    bibfs.Query(u, v, &scans);
    bibfs_scans += scans;
  }
  EXPECT_LT(qbs_scans, bibfs_scans);
}

}  // namespace
}  // namespace qbs
