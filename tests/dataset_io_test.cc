// Tests for the real-dataset ingestion layer (graph/dataset_io.h): the
// gz-aware edge-list reader and the QBSGRF04 binary cache — round-trip
// bit-identity, the committed fixture that pins the layout, corruption
// rejection, and the convert-once-then-cache flow.

#include "graph/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/components.h"
#include "graph/edge_list_io.h"
#include "graph/graph.h"
#include "util/binary_io.h"

namespace qbs {
namespace {

namespace fs = std::filesystem;

const char* FixturePlain() {
  static const std::string* const kPath =
      new std::string(std::string(QBS_TEST_DATA_DIR) + "/tiny_edges.txt");
  return kPath->c_str();
}

const char* FixtureGz() {
  static const std::string* const kPath =
      new std::string(std::string(QBS_TEST_DATA_DIR) + "/tiny_edges.txt.gz");
  return kPath->c_str();
}

// The committed QBSGRF04 fixture: the largest component of FixturePlain()
// as LoadOrConvertDataset caches it.
std::string FixtureCache() {
  return std::string(QBS_TEST_DATA_DIR) + "/tiny_edges.qbsgrf";
}

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Appends the raw bytes of a POD, for crafting cache files by hand.
template <typename T>
void Put(std::string* bytes, const T& value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void ExpectBitIdentical(const Graph& a, const Graph& b) {
  const auto ao = a.RawOffsets();
  const auto bo = b.RawOffsets();
  ASSERT_EQ(ao.size(), bo.size());
  for (size_t i = 0; i < ao.size(); ++i) EXPECT_EQ(ao[i], bo[i]) << i;
  const auto aa = a.RawAdjacency();
  const auto ba = b.RawAdjacency();
  ASSERT_EQ(aa.size(), ba.size());
  for (size_t i = 0; i < aa.size(); ++i) EXPECT_EQ(aa[i], ba[i]) << i;
}

// The fixture: vertices 0..4 plus {10, 11, 12} relabelled to 5..7;
// dedup/self-loop removal leaves 7 undirected edges in two components.
TEST(DatasetIoTest, ReadsPlainFixture) {
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumVertices(), 8u);
  EXPECT_EQ(g->NumEdges(), 7u);
  EXPECT_TRUE(g->HasEdge(0, 2));   // "2 0" line, normalized
  EXPECT_TRUE(g->HasEdge(5, 6));   // "10 11" relabelled
  EXPECT_FALSE(g->HasEdge(4, 4));  // self-loop dropped
}

TEST(DatasetIoTest, GzipFixtureMatchesPlain) {
  if (!GzipSupported()) {
    GTEST_SKIP() << "built without zlib";
  }
  auto plain = ReadEdgeList(FixturePlain());
  auto gz = ReadEdgeList(FixtureGz());
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(gz.has_value());
  ExpectBitIdentical(*plain, *gz);
}

TEST(DatasetIoTest, GzipWithoutZlibFailsCleanly) {
  if (GzipSupported()) {
    GTEST_SKIP() << "this build has zlib";
  }
  EXPECT_FALSE(ReadEdgeList(FixtureGz()).has_value());
}

TEST(DatasetIoTest, CacheRoundTripIsBitIdentical) {
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  const std::string path = TempPath("roundtrip.qbsgrf");
  DatasetCacheInfo info;
  info.largest_cc_extracted = true;
  info.raw_vertices = 123;
  info.raw_edges = 456;
  info.raw_file_bytes = 789;
  ASSERT_TRUE(SaveGraphCache(*g, info, path));

  DatasetCacheInfo loaded_info;
  auto loaded = LoadGraphCache(path, &loaded_info);
  ASSERT_TRUE(loaded.has_value());
  ExpectBitIdentical(*g, *loaded);
  EXPECT_TRUE(loaded_info.largest_cc_extracted);
  EXPECT_EQ(loaded_info.raw_vertices, 123u);
  EXPECT_EQ(loaded_info.raw_edges, 456u);
  EXPECT_EQ(loaded_info.raw_file_bytes, 789u);
}

TEST(DatasetIoTest, EmptyGraphRoundTrips) {
  const std::string path = TempPath("empty.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(Graph(), DatasetCacheInfo{}, path));
  auto loaded = LoadGraphCache(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 0u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
}

TEST(DatasetIoTest, CorruptedPayloadIsRejected) {
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  const std::string path = TempPath("corrupt.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(*g, DatasetCacheInfo{}, path));

  // Flip one bit in the last payload byte (an adjacency entry).
  const auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size) - 1);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(size) - 1);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(LoadGraphCache(path).has_value());
}

TEST(DatasetIoTest, CorruptedHeaderCountIsRejectedNotAllocated) {
  // The checksum is verified only once the whole file has been read, so a
  // bit-flipped header count must be caught by the file-size bound before
  // it sizes an allocation — not die in a ~2^62-byte std::bad_alloc.
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  const std::string path = TempPath("huge_header.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(*g, DatasetCacheInfo{}, path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    // Header layout: magic u64 @0, num_vertices u32 @8, num_edges u64 @12.
    const uint64_t huge = 1ull << 60;
    f.seekp(12);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(LoadGraphCache(path).has_value());
}

TEST(DatasetIoTest, BadMagicAndTruncationAreRejected) {
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  const std::string path = TempPath("header.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(*g, DatasetCacheInfo{}, path));

  // Bad magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char zero = 0;
    f.write(&zero, 1);
  }
  EXPECT_FALSE(LoadGraphCache(path).has_value());

  // Truncated payload.
  ASSERT_TRUE(SaveGraphCache(*g, DatasetCacheInfo{}, path));
  fs::resize_file(path, fs::file_size(path) - 8);
  EXPECT_FALSE(LoadGraphCache(path).has_value());

  // Missing file.
  EXPECT_FALSE(LoadGraphCache(TempPath("never_written.qbsgrf")).has_value());
}

// Corrupting any single byte of a saved cache — the header's counts and
// provenance, the CSR or the checksum itself — must be rejected, never
// loaded.
TEST(DatasetIoTest, EveryFlippedByteIsRejected) {
  auto g = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(g.has_value());
  const std::string path = TempPath("flipped.qbsgrf");
  DatasetCacheInfo info;
  info.largest_cc_extracted = true;
  info.raw_vertices = 123;
  info.raw_edges = 456;
  info.raw_file_bytes = 789;
  ASSERT_TRUE(SaveGraphCache(*g, info, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
    WriteFileBytes(path, corrupt);
    ASSERT_FALSE(LoadGraphCache(path).has_value()) << "byte " << at;
  }
}

// Rewrites the trailing checksum to match the bytes before it, so a body
// error gets past the checksum to the CSR check.
void Rechecksum(std::string* bytes) {
  Checksum64 sum;
  sum.Update(bytes->data(), bytes->size() - sizeof(uint64_t));
  const uint64_t digest = sum.Digest();
  std::memcpy(bytes->data() + bytes->size() - sizeof(digest), &digest,
              sizeof(digest));
}

// The header's bytes: magic, n, m, the largest-CC flag and three u64s.
constexpr size_t kCacheHeaderBytes = 8 + 4 + 8 + 1 + 3 * 8;

std::string LoadGraphCacheStderr(const std::string& path) {
  ::testing::internal::CaptureStderr();
  const bool loaded = LoadGraphCache(path).has_value();
  std::string err = ::testing::internal::GetCapturedStderr();
  return loaded ? "loaded" : err;
}

// The loader checks each list once the chunk that completes it has been
// read. A descent placed at, just before or just after a chunk boundary
// spans two chunks, and must be rejected as a CSR error, not missed. K_600
// has 359,400 adjacency entries, several load chunks, and lists of 599
// entries, so every chunk boundary falls inside a list.
TEST(DatasetIoTest, DescentAtAChunkBoundaryIsRejected) {
  const Graph g = CompleteGraph(600);
  const auto offsets = g.RawOffsets();
  const uint64_t entries = g.RawAdjacency().size();
  ASSERT_GT(entries, 4 * kGraphCacheChunkEntries);
  const std::string path = TempPath("chunked.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(g, DatasetCacheInfo{}, path));
  auto loaded = LoadGraphCache(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectBitIdentical(g, *loaded);

  const std::string bytes = ReadFileBytes(path);
  const size_t adjacency_at = kCacheHeaderBytes + offsets.size() * 8;
  for (uint64_t boundary = kGraphCacheChunkEntries; boundary < entries;
       boundary += kGraphCacheChunkEntries) {
    for (const uint64_t at : {boundary - 1, boundary, boundary + 1}) {
      // Entries at - 1 and at share a list.
      ASSERT_FALSE(std::binary_search(offsets.begin(), offsets.end(), at));
      std::string corrupt = bytes;
      char* entry = corrupt.data() + adjacency_at + at * sizeof(VertexId);
      // Entries at - 1 and at trade places.
      std::swap_ranges(entry - sizeof(VertexId), entry, entry);
      Rechecksum(&corrupt);
      WriteFileBytes(path, corrupt);
      EXPECT_NE(LoadGraphCacheStderr(path).find("not a valid CSR"),
                std::string::npos)
          << "entry " << at;
    }
  }
}

// A file whose CSR is broken and whose checksum no longer matches reports
// the checksum, whichever part of the CSR is broken: the loader reads the
// whole file before it names a CSR error.
TEST(DatasetIoTest, CacheBadInBothWaysReportsTheChecksum) {
  const Graph g = CompleteGraph(600);
  const std::string path = TempPath("bad_both_ways.qbsgrf");
  ASSERT_TRUE(SaveGraphCache(g, DatasetCacheInfo{}, path));
  const std::string bytes = ReadFileBytes(path);
  const size_t adjacency_at = kCacheHeaderBytes + g.RawOffsets().size() * 8;

  std::string swapped = bytes;  // a descent in the third chunk
  char* entry = swapped.data() + adjacency_at +
                (2 * kGraphCacheChunkEntries + 1) * sizeof(VertexId);
  std::swap_ranges(entry - sizeof(VertexId), entry, entry);
  std::string overshoot = bytes;  // offsets[1] past the adjacency
  const uint64_t huge = 1ull << 40;
  std::memcpy(overshoot.data() + kCacheHeaderBytes + 8, &huge, sizeof(huge));

  for (std::string* corrupt : {&swapped, &overshoot}) {
    WriteFileBytes(path, *corrupt);
    EXPECT_NE(LoadGraphCacheStderr(path).find("checksum mismatch"),
              std::string::npos);
    Rechecksum(corrupt);
    WriteFileBytes(path, *corrupt);
    EXPECT_NE(LoadGraphCacheStderr(path).find("not a valid CSR"),
              std::string::npos);
  }
}

// The fixture is written outside the C++ writer, by
// scripts/file_fixtures.py's separate implementation of the QBSGRF04
// layout and of Checksum64, so it pins the layout and the checksum
// function both: today's writer must reproduce it byte for byte, and the
// loader must read it back bit-identically.
DatasetCacheInfo FixtureCacheInfo() {
  DatasetCacheInfo info;
  info.largest_cc_extracted = true;
  info.raw_vertices = 8;
  info.raw_edges = 7;
  info.raw_file_bytes = fs::file_size(FixturePlain());
  return info;
}

TEST(DatasetIoTest, WriterReproducesFixtureBytes) {
  auto raw = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(raw.has_value());
  const std::string path = TempPath("fixture.qbsgrf");
  ASSERT_TRUE(
      SaveGraphCache(LargestComponent(*raw).graph, FixtureCacheInfo(), path));
  const std::string fixture = ReadFileBytes(FixtureCache());
  ASSERT_FALSE(fixture.empty());
  EXPECT_TRUE(ReadFileBytes(path) == fixture);
}

TEST(DatasetIoTest, LoaderReadsFixtureBitIdentically) {
  auto raw = ReadEdgeList(FixturePlain());
  ASSERT_TRUE(raw.has_value());
  DatasetCacheInfo info;
  auto loaded = LoadGraphCache(FixtureCache(), &info);
  ASSERT_TRUE(loaded.has_value());
  ExpectBitIdentical(LargestComponent(*raw).graph, *loaded);
  const DatasetCacheInfo expected = FixtureCacheInfo();
  EXPECT_EQ(info.largest_cc_extracted, expected.largest_cc_extracted);
  EXPECT_EQ(info.raw_vertices, expected.raw_vertices);
  EXPECT_EQ(info.raw_edges, expected.raw_edges);
  EXPECT_EQ(info.raw_file_bytes, expected.raw_file_bytes);
}

// The fixture's graph in the retired QBSGRF01 layout — payload size and an
// FNV-1a 64 payload checksum in the header, no trailing checksum — is
// rejected with a message that names the old format, and
// LoadOrConvertDataset rebuilds it from the raw edge list.
TEST(DatasetIoTest, RetiredV1CacheIsRejectedAndRebuilt) {
  constexpr size_t kCsrAt = 8 + 4 + 8 + 1 + 3 * 8;  // QBSGRF04 header size
  const std::string current = ReadFileBytes(FixtureCache());
  ASSERT_GT(current.size(), kCsrAt + sizeof(uint64_t));
  const std::string csr =
      current.substr(kCsrAt, current.size() - kCsrAt - sizeof(uint64_t));
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (const char c : csr) {
    fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  std::string v1 = current.substr(0, kCsrAt);
  v1.replace(0, 8, "QBSGRF01");
  Put(&v1, uint64_t{csr.size()});
  Put(&v1, fnv);
  v1 += csr;

  const std::string raw = TempPath("v1_raw.txt");
  const std::string cache = TempPath("v1.qbsgrf");
  fs::copy_file(FixturePlain(), raw, fs::copy_options::overwrite_existing);
  WriteFileBytes(cache, v1);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(LoadGraphCache(cache).has_value());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("QBSGRF01"),
            std::string::npos);

  auto rebuilt = LoadOrConvertDataset(raw, cache, nullptr);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->NumVertices(), 5u);
  EXPECT_TRUE(ReadFileBytes(cache) == current);
}

// The fixture under another version digit of its magic is rejected with
// a message that names the version, and LoadOrConvertDataset rebuilds it.
void ExpectRetiredCacheRebuilt(char digit) {
  const std::string current = ReadFileBytes(FixtureCache());
  std::string old = current;
  old[7] = digit;
  const std::string raw = TempPath(std::string("v") + digit + "_raw.txt");
  const std::string cache = TempPath(std::string("v") + digit + ".qbsgrf");
  fs::copy_file(FixturePlain(), raw, fs::copy_options::overwrite_existing);
  WriteFileBytes(cache, old);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(LoadGraphCache(cache).has_value());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(std::string("retired QBSGRF0") + digit +
                     " cache (re-convert it)"),
            std::string::npos)
      << err;

  ASSERT_TRUE(LoadOrConvertDataset(raw, cache, nullptr).has_value());
  EXPECT_TRUE(ReadFileBytes(cache) == current);
}

// A QBSGRF02 cache has today's layout, but its vertices may be numbered by
// first appearance in the raw file.
TEST(DatasetIoTest, RetiredV2CacheIsRejectedAndRebuilt) {
  ExpectRetiredCacheRebuilt('2');
}

// A QBSGRF03 cache has today's layout and numbering; only its trailer, a
// one-lane Checksum64, differs.
TEST(DatasetIoTest, RetiredV3CacheIsRejectedAndRebuilt) {
  ExpectRetiredCacheRebuilt('3');
}

TEST(DatasetIoTest, LoadOrConvertExtractsLargestComponentAndCaches) {
  // Copy the fixture so the raw file can be deleted to prove the second
  // load never re-parses it.
  const std::string raw = TempPath("convert_raw.txt");
  const std::string cache = TempPath("convert.qbsgrf");
  fs::remove(cache);
  fs::copy_file(FixturePlain(), raw, fs::copy_options::overwrite_existing);

  DatasetCacheInfo info;
  auto converted = LoadOrConvertDataset(raw, cache, &info);
  ASSERT_TRUE(converted.has_value());
  // Largest CC of the two-component fixture: the 5-vertex triangle+path.
  EXPECT_EQ(converted->NumVertices(), 5u);
  EXPECT_EQ(converted->NumEdges(), 5u);
  EXPECT_TRUE(info.largest_cc_extracted);
  EXPECT_EQ(info.raw_vertices, 8u);
  EXPECT_EQ(info.raw_edges, 7u);

  fs::remove(raw);
  DatasetCacheInfo info2;
  auto cached = LoadOrConvertDataset(raw, cache, &info2);
  ASSERT_TRUE(cached.has_value());
  ExpectBitIdentical(*converted, *cached);
  EXPECT_TRUE(info2.largest_cc_extracted);
  EXPECT_EQ(info2.raw_vertices, 8u);
}

TEST(DatasetIoTest, LoadOrConvertRebuildsWhenRawFileChanges) {
  // A replaced raw download (different size) must invalidate the cache:
  // serving the old conversion forever would silently bench stale data.
  const std::string raw = TempPath("stale_raw.txt");
  const std::string cache = TempPath("stale.qbsgrf");
  fs::remove(cache);
  {
    std::ofstream f(raw, std::ios::trunc);
    f << "0 1\n1 2\n";
  }
  auto first = LoadOrConvertDataset(raw, cache, nullptr);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->NumVertices(), 3u);

  {
    std::ofstream f(raw, std::ios::trunc);
    f << "0 1\n1 2\n2 3\n3 4\n";
  }
  DatasetCacheInfo info;
  auto second = LoadOrConvertDataset(raw, cache, &info);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->NumVertices(), 5u);
  EXPECT_EQ(info.raw_file_bytes, fs::file_size(raw));
  // And the rebuilt cache now matches the new raw file: a third call is a
  // cache hit (bit-identical, no re-parse needed).
  fs::remove(raw);
  auto third = LoadOrConvertDataset(raw, cache, nullptr);
  ASSERT_TRUE(third.has_value());
  ExpectBitIdentical(*second, *third);
}

TEST(DatasetIoTest, LoadOrConvertRebuildsRejectedCache) {
  const std::string raw = TempPath("rebuild_raw.txt");
  const std::string cache = TempPath("rebuild.qbsgrf");
  fs::copy_file(FixturePlain(), raw, fs::copy_options::overwrite_existing);
  {
    std::ofstream garbage(cache, std::ios::binary | std::ios::trunc);
    garbage << "not a qbsgrf file";
  }
  auto converted = LoadOrConvertDataset(raw, cache, nullptr);
  ASSERT_TRUE(converted.has_value());
  EXPECT_EQ(converted->NumVertices(), 5u);
  // The cache was rewritten and now verifies.
  EXPECT_TRUE(LoadGraphCache(cache).has_value());
}

TEST(DatasetIoTest, LoadOrConvertWithNeitherSourceFails) {
  EXPECT_FALSE(LoadOrConvertDataset(TempPath("no_raw.txt"),
                                    TempPath("no_cache.qbsgrf"), nullptr)
                   .has_value());
}

TEST(DatasetIoTest, FromCsrMatchesFromEdges) {
  const Graph a = Graph::FromEdges(
      4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}});
  const Graph b = Graph::FromCsr(
      std::vector<uint64_t>(a.RawOffsets().begin(), a.RawOffsets().end()),
      std::vector<VertexId>(a.RawAdjacency().begin(),
                            a.RawAdjacency().end()));
  ExpectBitIdentical(a, b);
  EXPECT_EQ(b.NumEdges(), 5u);
  EXPECT_TRUE(b.HasEdge(1, 3));
}

}  // namespace
}  // namespace qbs
