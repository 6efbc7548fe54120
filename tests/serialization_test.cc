#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "gen/generators.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Appends the raw bytes of a POD, for crafting index files by hand.
template <typename T>
void Put(std::string* bytes, const T& value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

constexpr uint64_t kMagicV2 = 0x3230584449534251ull;  // "QBSIDX02"

// A hand-made QBSIDX02 file over 3 vertices: the given landmarks, every
// label absent, no masks, and the given meta-edges.
std::string CraftIndex(const std::vector<VertexId>& landmarks,
                       const std::vector<MetaEdge>& edges) {
  constexpr VertexId kVertices = 3;
  std::string bytes;
  Put(&bytes, kMagicV2);
  Put(&bytes, kVertices);
  Put(&bytes, static_cast<uint32_t>(landmarks.size()));
  for (const VertexId r : landmarks) Put(&bytes, r);
  for (size_t i = 0; i < kVertices * landmarks.size(); ++i) {
    Put(&bytes, kInfDist);
  }
  Put(&bytes, uint8_t{0});
  Put(&bytes, static_cast<uint64_t>(edges.size()));
  for (const MetaEdge& e : edges) {
    Put(&bytes, e.a);
    Put(&bytes, e.b);
    Put(&bytes, e.weight);
  }
  return bytes;
}

// Everything a QBSIDX02 file stores must match, bit for bit.
void ExpectSameScheme(const LabelingScheme& a, const LabelingScheme& b) {
  const PathLabeling& la = a.labeling;
  const PathLabeling& lb = b.labeling;
  ASSERT_EQ(la.num_vertices(), lb.num_vertices());
  ASSERT_EQ(la.landmarks(), lb.landmarks());
  ASSERT_EQ(la.has_bp_masks(), lb.has_bp_masks());
  for (VertexId v = 0; v < la.num_vertices(); ++v) {
    for (LandmarkIndex i = 0; i < la.row_stride(); ++i) {
      ASSERT_EQ(la.Row(v)[i], lb.Row(v)[i]) << "v=" << v << " lane=" << i;
    }
  }
  if (la.has_bp_masks()) {
    for (LandmarkIndex i = 0; i < la.num_landmarks(); ++i) {
      ASSERT_EQ(la.BpSelected(i), lb.BpSelected(i)) << "i=" << i;
    }
    for (VertexId v = 0; v < la.num_vertices(); ++v) {
      for (LandmarkIndex i = 0; i < la.num_landmarks(); ++i) {
        ASSERT_EQ(la.GetBpMask(v, i), lb.GetBpMask(v, i))
            << "v=" << v << " i=" << i;
      }
    }
  }
  ASSERT_EQ(a.meta.Edges(), b.meta.Edges());
}

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/index.qbs"; }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

// The committed QBSIDX02 fixture was written by the element-wise writer
// that predates the bulk section I/O, from BA(200, 2, seed 12), |R| = 6,
// masks on. Today's writer must reproduce it byte for byte, and the loader
// must read it back into exactly the scheme a fresh build produces.
class V2FixtureTest : public SerializationTest {
 protected:
  static std::string FixturePath() {
    return std::string(QBS_TEST_DATA_DIR) + "/ba200_r6_v2.qbsidx";
  }
  static QbsIndex BuildFixtureIndex(const Graph& g) {
    QbsOptions options;
    options.num_landmarks = 6;
    return QbsIndex::Build(g, options);
  }
};

TEST_F(V2FixtureTest, WriterReproducesFixtureBytes) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const QbsIndex built = BuildFixtureIndex(g);
  ASSERT_TRUE(built.labeling().has_bp_masks());
  ASSERT_TRUE(built.Save(path_));
  const std::string fixture = ReadFileBytes(FixturePath());
  ASSERT_FALSE(fixture.empty());
  EXPECT_TRUE(ReadFileBytes(path_) == fixture);
}

TEST_F(V2FixtureTest, LoaderReadsFixtureBitIdentically) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const QbsIndex built = BuildFixtureIndex(g);
  auto loaded = LoadLabelingScheme(FixturePath());
  ASSERT_TRUE(loaded.has_value());
  LabelingScheme fresh{built.labeling(), built.meta_graph()};
  ExpectSameScheme(*loaded, fresh);
  // And a loaded scheme saves back to the same bytes.
  ASSERT_TRUE(SaveLabelingScheme(*loaded, path_));
  EXPECT_TRUE(ReadFileBytes(path_) == ReadFileBytes(FixturePath()));
}

// Cutting the file at any section boundary, or one byte either side of
// it, must be rejected: no section may be silently short or absent.
TEST_F(V2FixtureTest, TruncationAtEverySectionBoundaryIsRejected) {
  const std::string bytes = ReadFileBytes(FixturePath());
  auto loaded = LoadLabelingScheme(FixturePath());
  ASSERT_TRUE(loaded.has_value());
  const PathLabeling& l = loaded->labeling;
  const size_t n = l.num_vertices();
  const size_t k = l.num_landmarks();
  std::vector<size_t> boundaries;
  size_t at = 0;
  const auto section = [&](size_t size) {
    boundaries.push_back(at);
    at += size;
  };
  section(8);                       // magic
  section(4);                       // |V|
  section(4);                       // |R|
  section(4 * k);                   // landmarks
  section(2 * n * k);               // labels
  section(1);                       // mask flag
  for (size_t i = 0; i < k; ++i) {  // S_r: count, then ids
    section(4);
    section(4 * l.BpSelected(i).size());
  }
  section(16 * n * k);  // masks
  section(8);           // meta-edge count
  section(12 * loaded->meta.Edges().size());
  ASSERT_EQ(at, bytes.size());  // the map covers the whole file
  boundaries.push_back(at);
  for (const size_t b : boundaries) {
    for (const size_t cut : {b - 1, b, b + 1}) {
      if (cut >= bytes.size()) continue;  // also skips 0 - 1, which wraps
      WriteFileBytes(path_, bytes.substr(0, cut));
      EXPECT_FALSE(LoadLabelingScheme(path_).has_value()) << "cut=" << cut;
    }
  }
  // Bytes past the end of the layout are corruption too.
  WriteFileBytes(path_, bytes + '\0');
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

// Crafted files: the loader must turn bad bytes into nullopt, never into
// a CHECK abort in the labelling or meta-graph constructors.
TEST_F(SerializationTest, CraftedFileLoads) {
  WriteFileBytes(path_, CraftIndex({0, 2}, {MetaEdge{0, 1, 2}}));
  auto loaded = LoadLabelingScheme(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->labeling.landmarks(), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(loaded->meta.Distance(0, 1), 2u);
}

TEST_F(SerializationTest, DuplicateLandmarksAreRejected) {
  WriteFileBytes(path_, CraftIndex({1, 1}, {}));
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

TEST_F(SerializationTest, MetaEdgeWithTwoWeightsIsRejected) {
  WriteFileBytes(path_,
                 CraftIndex({0, 2}, {MetaEdge{0, 1, 2}, MetaEdge{1, 0, 3}}));
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

// Header counts are checked against the file's size before they size any
// allocation, so a corrupt count is a clean rejection, not bad_alloc.
TEST_F(SerializationTest, HeaderCountsLargerThanTheFileAreRejected) {
  std::string huge_vertices;
  Put(&huge_vertices, kMagicV2);
  Put(&huge_vertices, VertexId{1} << 31);
  Put(&huge_vertices, uint32_t{1});
  Put(&huge_vertices, VertexId{0});
  huge_vertices.resize(64, '\0');
  WriteFileBytes(path_, huge_vertices);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());

  std::string huge_landmarks;
  Put(&huge_landmarks, kMagicV2);
  Put(&huge_landmarks, VertexId{4});
  Put(&huge_landmarks, uint32_t{0xFFFFFFFF});
  huge_landmarks.resize(64, '\0');
  WriteFileBytes(path_, huge_landmarks);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());

  // A valid body whose meta-edge count claims 2^60 records.
  std::string huge_meta = CraftIndex({0, 2}, {});
  huge_meta.resize(huge_meta.size() - sizeof(uint64_t));
  Put(&huge_meta, uint64_t{1} << 60);
  WriteFileBytes(path_, huge_meta);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

// With |R| = 0 the file holds no per-vertex bytes, so only the caller's
// expected |V| can bound the header's before the labelling is allocated.
TEST_F(SerializationTest, ExpectedVertexCountBoundsLandmarkFreeFiles) {
  std::string huge_vertices;
  Put(&huge_vertices, kMagicV2);
  Put(&huge_vertices, VertexId{1} << 31);
  Put(&huge_vertices, uint32_t{0});
  Put(&huge_vertices, uint8_t{0});
  Put(&huge_vertices, uint64_t{0});
  WriteFileBytes(path_, huge_vertices);
  EXPECT_FALSE(LoadLabelingScheme(path_, 3).has_value());

  WriteFileBytes(path_, CraftIndex({}, {}));
  EXPECT_TRUE(LoadLabelingScheme(path_, 3).has_value());
  EXPECT_FALSE(LoadLabelingScheme(path_, 4).has_value());
}

TEST_F(SerializationTest, SchemeRoundTrip) {
  Graph g = testing::Figure4Graph();
  const auto scheme =
      BuildLabelingScheme(g, testing::Figure4Landmarks());
  ASSERT_TRUE(SaveLabelingScheme(scheme, path_));
  auto loaded = LoadLabelingScheme(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->labeling.landmarks(), scheme.labeling.landmarks());
  EXPECT_EQ(loaded->labeling.NumEntries(), scheme.labeling.NumEntries());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < 3; ++i) {
      EXPECT_EQ(loaded->labeling.Get(v, i), scheme.labeling.Get(v, i));
    }
  }
  EXPECT_EQ(loaded->meta.Edges(), scheme.meta.Edges());
  for (LandmarkIndex i = 0; i < 3; ++i) {
    for (LandmarkIndex j = 0; j < 3; ++j) {
      EXPECT_EQ(loaded->meta.Distance(i, j), scheme.meta.Distance(i, j));
    }
  }
}

TEST_F(SerializationTest, IndexSaveLoadQueriesAgree) {
  Graph g = BarabasiAlbert(400, 3, 9);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));

  auto loaded = QbsIndex::LoadFromFile(g, path_, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->landmarks(), built.landmarks());
  EXPECT_GT(loaded->DeltaSizeBytes(), 0u);  // Δ rebuilt on load
  for (const auto& [u, v] : SampleQueryPairs(g, 40, 3)) {
    ASSERT_EQ(loaded->Query({u, v}).spg, built.Query({u, v}).spg);
    ASSERT_EQ(loaded->Query({u, v}).spg, SpgByDoubleBfs(g, u, v));
  }
}

TEST_F(SerializationTest, LoadRejectsWrongGraph) {
  Graph g = BarabasiAlbert(300, 2, 5);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  Graph other = BarabasiAlbert(301, 2, 5);
  EXPECT_FALSE(QbsIndex::LoadFromFile(other, path_, options).has_value());
}

TEST_F(SerializationTest, LoadRejectsGarbage) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not an index";
  out.close();
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

TEST_F(SerializationTest, LoadRejectsTruncated) {
  Graph g = BarabasiAlbert(200, 2, 6);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  // Truncate the file to half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

TEST_F(SerializationTest, MissingFile) {
  EXPECT_FALSE(LoadLabelingScheme("/nonexistent/index.qbs").has_value());
}

// A mask-less scheme (built with bit_parallel = false) round-trips through
// a file into a working index: identical labels and meta-graph, masks
// disabled, and queries that agree with the oracle without any label
// short-circuit. The same scheme in the retired QBSIDX01 layout (no
// bit-parallel flag byte, "QBSIDX01" magic) is rejected, not misread.
TEST_F(SerializationTest, MasklessSchemeLoadsAndV1FileIsRejected) {
  Graph g = testing::Figure4Graph();
  LabelingBuildOptions maskless;
  maskless.bit_parallel = false;
  const LabelingScheme fresh =
      BuildLabelingScheme(g, testing::Figure4Landmarks(), maskless);
  ASSERT_TRUE(SaveLabelingScheme(fresh, path_));
  auto loaded = LoadLabelingScheme(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->labeling.has_bp_masks());
  ASSERT_EQ(loaded->labeling.landmarks(), fresh.labeling.landmarks());
  const uint32_t k = fresh.labeling.num_landmarks();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < k; ++i) {
      EXPECT_EQ(loaded->labeling.Get(v, i), fresh.labeling.Get(v, i))
          << "v=" << v << " i=" << i;
    }
  }
  EXPECT_EQ(loaded->meta.Edges(), fresh.meta.Edges());

  auto index = QbsIndex::LoadFromFile(g, path_);
  ASSERT_TRUE(index.has_value());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const QueryResponse response = index->Query({u, v});
      ASSERT_EQ(response.spg, SpgByDoubleBfs(g, u, v))
          << "u=" << u << " v=" << v;
      ASSERT_EQ(response.stats.label_short_circuits, 0u);
    }
  }

  std::string bytes = ReadFileBytes(path_);
  const size_t bp_flag_at = sizeof(uint64_t) + 2 * sizeof(uint32_t) +
                            k * sizeof(VertexId) +
                            size_t{g.NumVertices()} * k * sizeof(DistT);
  ASSERT_EQ(bytes[bp_flag_at], 0);
  bytes.erase(bp_flag_at, 1);
  bytes.replace(0, 8, "QBSIDX01");
  WriteFileBytes(path_, bytes);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
  EXPECT_FALSE(QbsIndex::LoadFromFile(g, path_).has_value());
}

// A freshly saved (v2) file round-trips the mask section; disabling masks
// at build keeps the section empty and the loader agrees.
TEST_F(SerializationTest, V2RoundTripWithoutMasks) {
  Graph g = BarabasiAlbert(200, 2, 13);
  QbsOptions options;
  options.num_landmarks = 6;
  options.bit_parallel = false;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  auto loaded = QbsIndex::LoadFromFile(g, path_, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->labeling().has_bp_masks());
  for (const auto& [u, v] : SampleQueryPairs(g, 30, 13)) {
    ASSERT_EQ(loaded->Query({u, v}).spg, built.Query({u, v}).spg);
  }
}

}  // namespace
}  // namespace qbs
