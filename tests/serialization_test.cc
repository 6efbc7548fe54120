#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "gen/generators.h"
#include "graph/components.h"
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

constexpr uint64_t kMagic = 0x3430584449534251ull;  // "QBSIDX04"

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
    for (LandmarkIndex i = 0; i < la.num_landmarks(); ++i) {
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

// The committed fixture holds BA(200, 2, seed 12) with |R| = 6. It is
// written outside the C++ writer, by scripts/file_fixtures.py's separate
// implementation of this layout and of Checksum64 (CI checks it with
// --check), so it pins the layout and the checksum function both: today's
// writer must reproduce it byte for byte, and the loader must read it
// back into exactly the scheme a fresh build produces.
class V4FixtureTest : public SerializationTest {
 protected:
  static std::string FixturePath() {
    return std::string(QBS_TEST_DATA_DIR) + "/ba200_r6_v4.qbsidx";
  }
  static QbsIndex BuildFixtureIndex(const Graph& g) {
    QbsOptions options;
    options.num_landmarks = 6;
    return QbsIndex::Build(g, options);
  }
};

TEST_F(V4FixtureTest, WriterReproducesFixtureBytes) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const QbsIndex built = BuildFixtureIndex(g);
  ASSERT_TRUE(built.Save(path_));
  const std::string fixture = ReadFileBytes(FixturePath());
  ASSERT_FALSE(fixture.empty());
  EXPECT_TRUE(ReadFileBytes(path_) == fixture);
}

TEST_F(V4FixtureTest, LoaderReadsFixtureBitIdentically) {
  const Graph g = BarabasiAlbert(200, 2, 12);
  const QbsIndex built = BuildFixtureIndex(g);
  auto loaded = LoadLabelingScheme(FixturePath());
  ASSERT_TRUE(loaded.has_value());
  LabelingScheme fresh{built.labeling(), built.meta_graph()};
  ExpectSameScheme(*loaded, fresh);
  // The loaded rows sit back to back, the file's label block, which is
  // what lets a save write the matrix with one call.
  const PathLabeling& l = loaded->labeling;
  for (VertexId v = 0; v < l.num_vertices(); ++v) {
    ASSERT_EQ(l.Row(v), l.Row(0) + static_cast<size_t>(v) * l.num_landmarks());
  }
  // And a loaded scheme saves back to the same bytes.
  ASSERT_TRUE(SaveLabelingScheme(*loaded, path_));
  EXPECT_TRUE(ReadFileBytes(path_) == ReadFileBytes(FixturePath()));
}

// Cutting the file at any section boundary, or one byte either side of
// it, must be rejected: no section may be silently short or absent.
TEST_F(V4FixtureTest, TruncationAtEverySectionBoundaryIsRejected) {
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
TEST_F(V4FixtureTest, EveryFlippedByteIsRejected) {
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

// Lemma 5.2 makes the scheme a function of (G, R) alone, so any change to
// how it is built must leave every saved file unchanged. Each row pins the
// size and trailing Checksum64 of one stand-in saved at one |R|; the
// sizes were recorded from the per-landmark BFS build, and
// scripts/file_fixtures.py's checksum64 reproduces each checksum. |R| =
// 32 and 33 sit either side of the build's switch from 32-bit to 64-bit
// lane words (their rows were recorded from the 64-bit-only build), 64
// and 65 either side of one 64-bit word of landmarks, and 100 spans two.
struct IndexDigest {
  const char* graph;
  uint32_t landmarks;
  uint64_t bytes;
  uint64_t checksum;
};

const IndexDigest kIndexDigests[] = {
    {"ba", 1, 6036, 0xb5c50c51576138f2ull},
    {"ba", 5, 30172, 0xaab76330b7f10e0full},
    {"ba", 20, 122140, 0x53d718d9a84bdb83ull},
    {"ba", 32, 196864, 0xd8f05739240589e3ull},
    {"ba", 33, 203132, 0xbcc414022cd052e4ull},
    {"ba", 64, 400368, 0x7458376e17985793ull},
    {"ba", 65, 406804, 0x9f9ac411ac9c27fdull},
    {"ba", 100, 633636, 0xf1bddc8a0fbbbb50ull},
    {"er", 1, 5704, 0x3875d62e93d3822cull},
    {"er", 5, 28512, 0xb2365083e05c1bd6ull},
    {"er", 20, 115608, 0x88ab1822b4e96851ull},
    {"er", 32, 186480, 0x620903c61f15ea06ull},
    {"er", 33, 192344, 0xdaf99b57e6f09a70ull},
    {"er", 64, 380536, 0x8941f0290907acd2ull},
    {"er", 65, 386628, 0x8c4cda9867f8e431ull},
    {"er", 100, 604336, 0x9302e54823ac3ba8ull},
    {"ws", 1, 6036, 0x9471583435bc05d4ull},
    {"ws", 5, 30172, 0xa5166f8d1973e313ull},
    {"ws", 20, 122236, 0x142a69a7b754eae7ull},
    {"ws", 32, 196924, 0xd0409268ad2ac634ull},
    {"ws", 33, 203216, 0x7636f113b978ee43ull},
    {"ws", 64, 402996, 0x2565b992d826c994ull},
    {"ws", 65, 409600, 0x6c4490b9e505f2d7ull},
    {"ws", 100, 636468, 0x524a20a48064410bull},
    {"grid", 1, 6036, 0xd0f87a913c74b353ull},
    {"grid", 5, 30100, 0x6532c6a93d31ffe1ull},
    {"grid", 20, 120340, 0x2e09a715980eb555ull},
    {"grid", 32, 192532, 0x4e238ca1005da2a7ull},
    {"grid", 33, 198548, 0x04b7ff35b8d663f4ull},
    {"grid", 64, 385728, 0x3c4e6707199cb4c5ull},
    {"grid", 65, 391744, 0xb556c263353748b6ull},
    {"grid", 100, 602304, 0x101a563915be0c90ull},
};

Graph DigestGraph(const std::string& name) {
  if (name == "ba") return BarabasiAlbert(3000, 3, 41);
  if (name == "er") return LargestComponent(ErdosRenyi(3000, 4500, 41)).graph;
  if (name == "ws") return WattsStrogatz(3000, 6, 0.1, 41);
  return GridGraph(50, 60);
}

TEST_F(SerializationTest, SavedIndexBytesArePinned) {
  for (const std::string name : {"ba", "er", "ws", "grid"}) {
    const Graph g = DigestGraph(name);
    for (const uint32_t k : {1u, 5u, 20u, 32u, 33u, 64u, 65u, 100u}) {
      QbsOptions options;
      options.num_landmarks = k;
      ASSERT_TRUE(QbsIndex::Build(g, options).Save(path_));
      const std::string bytes = ReadFileBytes(path_);
      ASSERT_GE(bytes.size(), sizeof(uint64_t));
      uint64_t checksum = 0;
      std::memcpy(&checksum, bytes.data() + bytes.size() - sizeof(checksum),
                  sizeof(checksum));
      const IndexDigest* pinned = nullptr;
      for (const IndexDigest& d : kIndexDigests) {
        if (d.graph == name && d.landmarks == k) pinned = &d;
      }
      ASSERT_NE(pinned, nullptr) << name << " |R|=" << k;
      EXPECT_EQ(bytes.size(), pinned->bytes) << name << " |R|=" << k;
      EXPECT_EQ(checksum, pinned->checksum) << name << " |R|=" << k;
    }
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

// A meta-edge must join two distinct landmarks of the file at a real
// distance; each way of breaking that is rejected behind a valid checksum.
TEST_F(SerializationTest, BadMetaEdgesAreRejected) {
  const MetaEdge bad[] = {
      {1, 1, 2},             // a == b
      {0, 2, 2},             // b >= k
      {2, 1, 2},             // a >= k
      {0, 1, 0},             // weight 0
      {0, 1, kUnreachable},  // weight "no path"
  };
  for (const MetaEdge& e : bad) {
    WriteFileBytes(path_, CraftIndex({0, 2}, {e}));
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("bad meta-edge"), std::string::npos)
        << e.a << " " << e.b << " " << e.weight << ": " << err;
  }
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

// A matrix with no lanes or no rows is an empty label block: it saves and
// loads like any other.
TEST_F(SerializationTest, EmptyMatricesRoundTrip) {
  for (const VertexId n : {VertexId{0}, VertexId{3}}) {
    LabelingScheme scheme{PathLabeling(n, {}), MetaGraph(0)};
    scheme.meta.Finalize();
    ASSERT_TRUE(SaveLabelingScheme(scheme, path_)) << "n=" << n;
    auto loaded = LoadLabelingScheme(path_, n);
    ASSERT_TRUE(loaded.has_value()) << "n=" << n;
    ExpectSameScheme(*loaded, scheme);
    EXPECT_EQ(loaded->labeling.SizeBytes(), 0u);
  }
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

// A save writes `path + ".tmp"` and renames it into place: a failed save
// leaves the previous index untouched, and a successful one leaves no tmp
// file behind.
TEST_F(SerializationTest, SaveIsAtomic) {
  Graph g = BarabasiAlbert(200, 2, 6);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  const std::string tmp = path_ + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(built.Save(path_));
  EXPECT_FALSE(std::filesystem::exists(tmp));
  const std::string saved = ReadFileBytes(path_);

  // A directory where the tmp file goes makes the save fail.
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  const Graph other_graph = BarabasiAlbert(300, 2, 7);
  const QbsIndex other = QbsIndex::Build(other_graph, options);
  EXPECT_FALSE(other.Save(path_));
  EXPECT_TRUE(std::filesystem::is_directory(tmp));
  std::filesystem::remove(tmp);
  EXPECT_TRUE(ReadFileBytes(path_) == saved);
  auto loaded = LoadLabelingScheme(path_);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameScheme(*loaded, LabelingScheme{built.labeling(),
                                           built.meta_graph()});
}

TEST_F(SerializationTest, LoadRejectsWrongGraph) {
  Graph g = BarabasiAlbert(300, 2, 5);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  Graph other = BarabasiAlbert(301, 2, 5);
  EXPECT_FALSE(QbsIndex::LoadFromFile(other, path_, options).has_value());

  // The same graph numbered v -> n-1-v has the same vertex count, so only
  // the landmark-neighbour check tells the two apart.
  const VertexId n = g.NumVertices();
  std::vector<Edge> reversed;
  for (const Edge& e : g.EdgeList()) {
    reversed.push_back(Edge{n - 1 - e.u, n - 1 - e.v});
  }
  const Graph renumbered = Graph::FromEdges(n, std::move(reversed));
  EXPECT_FALSE(QbsIndex::LoadFromFile(renumbered, path_, options).has_value());
  auto loaded = QbsIndex::LoadFromFile(g, path_, options);
  ASSERT_TRUE(loaded.has_value());
  for (const auto& [u, v] : SampleQueryPairs(g, 20, 5)) {
    ASSERT_EQ(loaded->Query({u, v}).spg, SpgByDoubleBfs(g, u, v));
  }
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
  const std::string saved = ReadFileBytes(path_);
  ASSERT_TRUE(LoadLabelingScheme(path_).has_value());

  const size_t k = fresh.labeling.num_landmarks();
  const size_t flag_at = sizeof(uint64_t) + 2 * sizeof(uint32_t) +
                         k * sizeof(VertexId) +
                         size_t{g.NumVertices()} * k * sizeof(DistT);
  std::string v1 = saved.substr(0, saved.size() - sizeof(uint64_t));
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

// An index under another version digit of its magic is rejected with a
// message that names the version. QBSIDX03 had today's layout under the
// one-lane Checksum64, so its files differ from today's only in the magic
// and the trailer.
TEST_F(SerializationTest, RetiredVersionIsRejectedByName) {
  Graph g = testing::Figure4Graph();
  ASSERT_TRUE(SaveLabelingScheme(
      BuildLabelingScheme(g, testing::Figure4Landmarks()), path_));
  const std::string saved = ReadFileBytes(path_);
  for (const char digit : {'1', '2', '3', 'x'}) {
    std::string old = saved;
    old[7] = digit;  // the version digit of the magic
    WriteFileBytes(path_, old);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
    const std::string err = ::testing::internal::GetCapturedStderr();
    const std::string expected =
        digit == 'x' ? "not a QBSIDX04 index"
                     : std::string("retired QBSIDX0") + digit +
                           " index (rebuild it with `qbs build`)";
    EXPECT_NE(err.find(expected), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace qbs
