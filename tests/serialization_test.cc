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
#include "util/binary_io.h"
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

constexpr uint64_t kMagic = 0x3330584449534251ull;  // "QBSIDX03"

// Appends the Checksum64 of everything before it, as the writer does.
void AppendChecksum(std::string* bytes) {
  Checksum64 sum;
  sum.Update(bytes->data(), bytes->size());
  Put(bytes, sum.Digest());
}

// A hand-made index file over 3 vertices: the given landmarks, every
// label absent, the given meta-edges, and a valid checksum.
std::string CraftIndex(const std::vector<VertexId>& landmarks,
                       const std::vector<MetaEdge>& edges) {
  constexpr VertexId kVertices = 3;
  std::string bytes;
  Put(&bytes, kMagic);
  Put(&bytes, kVertices);
  Put(&bytes, static_cast<uint32_t>(landmarks.size()));
  for (const VertexId r : landmarks) Put(&bytes, r);
  for (size_t i = 0; i < kVertices * landmarks.size(); ++i) {
    Put(&bytes, kInfDist);
  }
  Put(&bytes, static_cast<uint64_t>(edges.size()));
  for (const MetaEdge& e : edges) {
    Put(&bytes, e.a);
    Put(&bytes, e.b);
    Put(&bytes, e.weight);
  }
  AppendChecksum(&bytes);
  return bytes;
}

// Everything an index file stores must match, bit for bit.
void ExpectSameScheme(const LabelingScheme& a, const LabelingScheme& b) {
  const PathLabeling& la = a.labeling;
  const PathLabeling& lb = b.labeling;
  ASSERT_EQ(la.num_vertices(), lb.num_vertices());
  ASSERT_EQ(la.landmarks(), lb.landmarks());
  for (VertexId v = 0; v < la.num_vertices(); ++v) {
    for (LandmarkIndex i = 0; i < la.row_stride(); ++i) {
      ASSERT_EQ(la.Row(v)[i], lb.Row(v)[i]) << "v=" << v << " lane=" << i;
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

// The committed fixture holds BA(200, 2, seed 12) with |R| = 6. It was
// made outside the C++ writer — converted from the previous version's
// fixture by a separate implementation of this layout and of Checksum64 —
// so it pins the layout and the checksum function both: today's writer
// must reproduce it byte for byte, and the loader must read it back into
// exactly the scheme a fresh build produces.
class V3FixtureTest : public SerializationTest {
 protected:
  static std::string FixturePath() {
    return std::string(QBS_TEST_DATA_DIR) + "/ba200_r6_v3.qbsidx";
  }
  static QbsIndex BuildFixtureIndex(const Graph& g) {
    QbsOptions options;
    options.num_landmarks = 6;
    return QbsIndex::Build(g, options);
  }
};

TEST_F(V3FixtureTest, WriterReproducesFixtureBytes) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const QbsIndex built = BuildFixtureIndex(g);
  ASSERT_TRUE(built.Save(path_));
  const std::string fixture = ReadFileBytes(FixturePath());
  ASSERT_FALSE(fixture.empty());
  EXPECT_TRUE(ReadFileBytes(path_) == fixture);
}

TEST_F(V3FixtureTest, LoaderReadsFixtureBitIdentically) {
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
TEST_F(V3FixtureTest, TruncationAtEverySectionBoundaryIsRejected) {
  const std::string bytes = ReadFileBytes(FixturePath());
  auto loaded = LoadLabelingScheme(FixturePath());
  ASSERT_TRUE(loaded.has_value());
  const size_t n = loaded->labeling.num_vertices();
  const size_t k = loaded->labeling.num_landmarks();
  std::vector<size_t> boundaries;
  size_t at = 0;
  const auto section = [&](size_t size) {
    boundaries.push_back(at);
    at += size;
  };
  section(8);          // magic
  section(4);          // |V|
  section(4);          // |R|
  section(4 * k);      // landmarks
  section(2 * n * k);  // labels
  section(8);          // meta-edge count
  section(12 * loaded->meta.Edges().size());
  section(8);  // checksum
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

// Corrupting any single byte of the fixture — header, landmarks, labels,
// meta-edges or the checksum itself — must be rejected, never loaded.
TEST_F(V3FixtureTest, EveryFlippedByteIsRejected) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const std::string bytes = ReadFileBytes(FixturePath());
  ASSERT_FALSE(bytes.empty());
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
    WriteFileBytes(path_, corrupt);
    ASSERT_FALSE(LoadLabelingScheme(path_).has_value()) << "byte " << at;
  }
  // Any other bit of a byte too, through the index-level loader.
  for (size_t at = 0; at < bytes.size(); at += 97) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x80);
    WriteFileBytes(path_, corrupt);
    ASSERT_FALSE(QbsIndex::LoadFromFile(g, path_).has_value())
        << "byte " << at;
  }
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
  Put(&huge_vertices, kMagic);
  Put(&huge_vertices, VertexId{1} << 31);
  Put(&huge_vertices, uint32_t{1});
  Put(&huge_vertices, VertexId{0});
  huge_vertices.resize(64, '\0');
  WriteFileBytes(path_, huge_vertices);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());

  std::string huge_landmarks;
  Put(&huge_landmarks, kMagic);
  Put(&huge_landmarks, VertexId{4});
  Put(&huge_landmarks, uint32_t{0xFFFFFFFF});
  huge_landmarks.resize(64, '\0');
  WriteFileBytes(path_, huge_landmarks);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());

  // A valid body whose meta-edge count claims 2^60 records.
  std::string huge_meta = CraftIndex({0, 2}, {});
  huge_meta.resize(huge_meta.size() - 2 * sizeof(uint64_t));
  Put(&huge_meta, uint64_t{1} << 60);
  AppendChecksum(&huge_meta);
  WriteFileBytes(path_, huge_meta);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

// With |R| = 0 the file holds no per-vertex bytes, so only the caller's
// expected |V| can bound the header's before the labelling is allocated.
TEST_F(SerializationTest, ExpectedVertexCountBoundsLandmarkFreeFiles) {
  std::string huge_vertices;
  Put(&huge_vertices, kMagic);
  Put(&huge_vertices, VertexId{1} << 31);
  Put(&huge_vertices, uint32_t{0});
  Put(&huge_vertices, uint64_t{0});
  AppendChecksum(&huge_vertices);
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

// The same scheme in either retired layout is rejected, not misread:
// version 2 (a mask-flag byte after the labels, no checksum) and version 1
// (neither), each under its own magic — and also under today's magic.
TEST_F(SerializationTest, OlderFormatsAreRejected) {
  Graph g = testing::Figure4Graph();
  const LabelingScheme fresh =
      BuildLabelingScheme(g, testing::Figure4Landmarks());
  ASSERT_TRUE(SaveLabelingScheme(fresh, path_));
  const std::string v3 = ReadFileBytes(path_);
  ASSERT_TRUE(LoadLabelingScheme(path_).has_value());

  const size_t k = fresh.labeling.num_landmarks();
  const size_t flag_at = sizeof(uint64_t) + 2 * sizeof(uint32_t) +
                         k * sizeof(VertexId) +
                         size_t{g.NumVertices()} * k * sizeof(DistT);
  std::string v1 = v3.substr(0, v3.size() - sizeof(uint64_t));
  std::string v2 = v1;
  v2.insert(flag_at, 1, '\0');  // "no masks"
  for (std::string* old : {&v1, &v2}) {
    WriteFileBytes(path_, *old);
    EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
    (*old)[7] = old == &v1 ? '1' : '2';  // the version digit of the magic
    WriteFileBytes(path_, *old);
    EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
    EXPECT_FALSE(QbsIndex::LoadFromFile(g, path_).has_value());
  }
}

}  // namespace
}  // namespace qbs
