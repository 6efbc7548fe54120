// Tests for the dataset table's resolution side (workload/dataset_registry.h):
// name/abbrev lookup, the error path listing available names, the synthetic
// stand-in fallback, and raw -> cache resolution against a local data
// directory.

#include "workload/dataset_registry.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

namespace qbs {
namespace {

namespace fs = std::filesystem;

// An empty data directory under the test temp dir, with raw/ created.
std::string FreshDataDir(const std::string& name) {
  const std::string data_dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(data_dir);
  fs::create_directories(fs::path(data_dir) / "raw");
  return data_dir;
}

// Douban's raw file is a plain .txt, so a tiny edge list can stand in for
// it without gzip.
void WriteDoubanRaw(const std::string& data_dir, const std::string& edges) {
  std::ofstream raw(RawPathFor(*FindDataset("douban"), data_dir),
                    std::ios::trunc);
  raw << edges;
}

TEST(DatasetsTest, FindsByNameAbbrevAndCase) {
  ASSERT_NE(FindDataset("dblp"), nullptr);
  EXPECT_EQ(FindDataset("dblp")->abbrev, "DB");
  EXPECT_EQ(FindDataset("DBLP"), FindDataset("dblp"));
  EXPECT_EQ(FindDataset("DB"), FindDataset("dblp"));
  EXPECT_EQ(FindDataset("db"), FindDataset("dblp"));
  EXPECT_EQ(&DatasetByAbbrev("DB"), FindDataset("dblp"));
  ASSERT_NE(FindDataset("epinions"), nullptr);
  EXPECT_TRUE(FindDataset("epinions")->abbrev.empty());
  EXPECT_EQ(FindDataset("no-such-dataset"), nullptr);
  EXPECT_EQ(FindDataset(""), nullptr);
}

TEST(DatasetsTest, TableIsWellFormed) {
  for (const DatasetSpec& s : Datasets()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.file.empty()) << s.name;
    EXPECT_GT(s.host_vertices, 0u) << s.name;
    EXPECT_GT(s.host_edges, 0u) << s.name;
    EXPECT_TRUE(s.url.empty() || s.url.rfind("https://", 0) == 0) << s.name;
    // Download targets must be parseable by ReadEdgeList: plain or gz.
    if (!s.url.empty()) {
      const bool txt =
          s.file.size() > 4 &&
          (s.file.rfind(".txt") == s.file.size() - 4 ||
           s.file.rfind(".txt.gz") == s.file.size() - 7);
      EXPECT_TRUE(txt) << s.file;
    }
    // A Table 1 row carries its reference values and a stand-in.
    if (!s.abbrev.empty()) {
      EXPECT_GT(s.paper_vertices_m, 0.0) << s.name;
      EXPECT_GT(s.paper_edges_m, 0.0) << s.name;
      EXPECT_GT(s.param, 0u) << s.name;
      EXPECT_GT(s.kind == GeneratorKind::kRMat ? s.rmat_scale : s.n, 0u)
          << s.name;
    }
  }
}

TEST(DatasetsTest, AvailableNamesListsEverything) {
  const std::string names = AvailableDatasetNames();
  for (const DatasetSpec& s : Datasets()) {
    EXPECT_NE(names.find(s.name), std::string::npos) << s.name;
  }
  EXPECT_NE(names.find("(DB)"), std::string::npos);
}

TEST(DatasetsTest, DefaultDataDirHonorsEnv) {
  const char* old = std::getenv("QBS_DATA_DIR");
  setenv("QBS_DATA_DIR", "/tmp/qbs-data-test", 1);
  EXPECT_EQ(DefaultDataDir(), "/tmp/qbs-data-test");
  if (old == nullptr) {
    unsetenv("QBS_DATA_DIR");
  } else {
    setenv("QBS_DATA_DIR", old, 1);
  }
  if (std::getenv("QBS_DATA_DIR") == nullptr) {
    EXPECT_EQ(DefaultDataDir(), "data");
  }
}

TEST(DatasetsTest, UnknownNameFailsResolution) {
  EXPECT_FALSE(
      ResolveDataset("no-such-dataset", ::testing::TempDir()).has_value());
}

TEST(DatasetsTest, MissingDataFallsBackToStandIn) {
  const std::string empty_dir =
      (fs::path(::testing::TempDir()) / "no-data-here").string();
  auto resolved = ResolveDataset("douban", empty_dir, /*synthetic_scale=*/0.1);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->source, "stand-in");
  EXPECT_EQ(resolved->spec, FindDataset("douban"));
  EXPECT_GT(resolved->graph.NumVertices(), 0u);
  // The fallback is the Table 1 stand-in generator, bit-for-bit.
  const Graph standin = MakeDataset(DatasetByAbbrev("DO"), 0.1);
  EXPECT_EQ(resolved->graph.EdgeList(), standin.EdgeList());
}

TEST(DatasetsTest, NonPaperDatasetWithoutDataFailsResolution) {
  // Epinions has no Table 1 stand-in, so nothing can substitute for it.
  const std::string empty_dir =
      (fs::path(::testing::TempDir()) / "still-no-data").string();
  EXPECT_FALSE(ResolveDataset("epinions", empty_dir).has_value());
}

TEST(DatasetsTest, ResolvesRawThenHitsCache) {
  const std::string data_dir = FreshDataDir("datasets_test_data");
  WriteDoubanRaw(data_dir, "# two components\n0 1\n1 2\n2 0\n5 6\n");

  auto first = ResolveDataset("douban", data_dir);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->source, "raw");
  EXPECT_EQ(first->graph.NumVertices(), 3u);  // largest CC: the triangle
  EXPECT_EQ(first->graph.NumEdges(), 3u);
  EXPECT_TRUE(first->cache_info.largest_cc_extracted);
  EXPECT_EQ(first->cache_info.raw_vertices, 5u);
  EXPECT_TRUE(fs::exists(fs::path(data_dir) / "cache" / "douban.qbsgrf"));

  auto second = ResolveDataset("douban", data_dir);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, "cache");
  EXPECT_EQ(second->graph.NumVertices(), 3u);
  EXPECT_EQ(second->cache_info.raw_vertices, 5u);
  fs::remove_all(data_dir);
}

// A cache that fails verification is rebuilt from the raw file, and the
// graph is reported as parsed from raw, not as a cache hit.
TEST(DatasetsTest, RejectedCacheIsReportedAsRaw) {
  const std::string data_dir = FreshDataDir("datasets_test_garbage");
  WriteDoubanRaw(data_dir, "0 1\n1 2\n");
  fs::create_directories(fs::path(data_dir) / "cache");
  {
    std::ofstream garbage(fs::path(data_dir) / "cache" / "douban.qbsgrf");
    garbage << "not a graph cache";
  }
  auto first = ResolveDataset("douban", data_dir);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->source, "raw");
  EXPECT_EQ(first->graph.NumVertices(), 3u);
  auto second = ResolveDataset("douban", data_dir);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, "cache");
  fs::remove_all(data_dir);
}

// A raw file replaced after conversion makes the cache stale: the graph is
// re-parsed and reported as raw.
TEST(DatasetsTest, ReplacedRawFileIsReportedAsRaw) {
  const std::string data_dir = FreshDataDir("datasets_test_replaced");
  WriteDoubanRaw(data_dir, "0 1\n1 2\n");
  ASSERT_EQ(ResolveDataset("douban", data_dir)->source, "raw");
  ASSERT_EQ(ResolveDataset("douban", data_dir)->source, "cache");
  WriteDoubanRaw(data_dir, "0 1\n1 2\n2 3\n3 4\n");
  auto replaced = ResolveDataset("douban", data_dir);
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->source, "raw");
  EXPECT_EQ(replaced->graph.NumVertices(), 5u);
  fs::remove_all(data_dir);
}

}  // namespace
}  // namespace qbs
