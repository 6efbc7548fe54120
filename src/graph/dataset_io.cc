#include "graph/dataset_io.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "util/binary_io.h"

#ifdef QBS_HAVE_ZLIB
#include <zlib.h>
#endif

namespace qbs {
namespace {

constexpr uint64_t kMagic = 0x3130465247534251ull;  // "QBSGRF01"

// FNV-1a 64, folded incrementally over the payload arrays. Detects the
// bit flips and truncations a download or disk error introduces; this is
// an integrity check, not an authenticity one (that is what the fetcher's
// SHA-256 over the raw file is for).
class Fnv1a64 {
 public:
  template <typename T>
  void Update(const T* data, size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    const size_t size = count * sizeof(T);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

bool HasGzSuffix(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

#ifdef QBS_HAVE_ZLIB
std::optional<Graph> ReadGzEdgeList(const std::string& path,
                                    const EdgeListReadOptions& options) {
  gzFile gz = gzopen(path.c_str(), "rb");
  if (gz == nullptr) {
    std::cerr << "ReadEdgeListAuto: cannot open " << path << '\n';
    return std::nullopt;
  }
  // 256 KiB decompression window; gzgets returns at most one line per call,
  // and lines longer than the buffer are reassembled below.
  std::vector<char> buf(1 << 18);
  bool stream_error = false;
  auto next_line = [&](std::string* line) {
    line->clear();
    for (;;) {
      if (gzgets(gz, buf.data(), static_cast<int>(buf.size())) == nullptr) {
        int errnum = 0;
        gzerror(gz, &errnum);
        if (errnum != Z_OK && errnum != Z_STREAM_END) stream_error = true;
        return !line->empty();
      }
      line->append(buf.data());
      if (!line->empty() && line->back() == '\n') {
        line->pop_back();
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
    }
  };
  auto graph = ReadEdgeListFromLines(next_line, options, path);
  gzclose(gz);
  if (stream_error) {
    std::cerr << "ReadEdgeListAuto: gzip stream error in " << path
              << '\n';
    return std::nullopt;
  }
  return graph;
}
#endif

}  // namespace

bool GzipSupported() {
#ifdef QBS_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

std::optional<Graph> ReadEdgeListAuto(const std::string& path,
                                      const EdgeListReadOptions& options) {
  if (!HasGzSuffix(path)) return ReadEdgeList(path, options);
#ifdef QBS_HAVE_ZLIB
  return ReadGzEdgeList(path, options);
#else
  std::cerr << "ReadEdgeListAuto: " << path
            << " is gzip-compressed but this build has no zlib; "
               "decompress it first (gunzip)"
            << '\n';
  return std::nullopt;
#endif
}

bool SaveGraphCache(const Graph& g, const DatasetCacheInfo& info,
                    const std::string& path) {
  // Write to a temp sibling and rename, so a crash mid-write never leaves
  // a half-cache that the next run would have to checksum-reject.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "SaveGraphCache: cannot open " << tmp << '\n';
      return false;
    }
    // An empty Graph has no offsets array at all; persist it as the
    // canonical one-entry CSR so the loader's n+1 offsets always exist.
    static constexpr uint64_t kEmptyOffsets[1] = {0};
    auto offsets = g.RawOffsets();
    if (offsets.empty()) offsets = kEmptyOffsets;
    const auto adjacency = g.RawAdjacency();
    Fnv1a64 checksum;
    checksum.Update(offsets.data(), offsets.size());
    checksum.Update(adjacency.data(), adjacency.size());

    WritePod(out, kMagic);
    WritePod(out, g.NumVertices());
    WritePod(out, g.NumEdges());
    WritePod(out, static_cast<uint8_t>(info.largest_cc_extracted ? 1 : 0));
    WritePod(out, info.raw_vertices);
    WritePod(out, info.raw_edges);
    WritePod(out, info.raw_file_bytes);
    const uint64_t payload_bytes =
        offsets.size() * sizeof(uint64_t) + adjacency.size() * sizeof(VertexId);
    WritePod(out, payload_bytes);
    WritePod(out, checksum.Digest());
    WriteArray(out, offsets.data(), offsets.size());
    WriteArray(out, adjacency.data(), adjacency.size());
    if (!out) {
      std::cerr << "SaveGraphCache: write failed for " << tmp << '\n';
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::cerr << "SaveGraphCache: rename to " << path << " failed: "
              << ec.message() << '\n';
    return false;
  }
  return true;
}

std::optional<Graph> LoadGraphCache(const std::string& path,
                                    DatasetCacheInfo* info) {
  BinaryReader in(path);
  if (!in.is_open()) {
    std::cerr << "LoadGraphCache: cannot open " << path << '\n';
    return std::nullopt;
  }
  uint64_t magic = 0;
  VertexId n = 0;
  uint64_t m = 0;
  uint8_t cc_flag = 0;
  DatasetCacheInfo header;
  uint64_t payload_bytes = 0;
  uint64_t stored_checksum = 0;
  if (!in.Read(&magic) || magic != kMagic || !in.Read(&n) || !in.Read(&m) ||
      !in.Read(&cc_flag) || cc_flag > 1 || !in.Read(&header.raw_vertices) ||
      !in.Read(&header.raw_edges) || !in.Read(&header.raw_file_bytes) ||
      !in.Read(&payload_bytes) || !in.Read(&stored_checksum)) {
    std::cerr << "LoadGraphCache: bad header in " << path << '\n';
    return std::nullopt;
  }
  header.largest_cc_extracted = cc_flag == 1;
  // The checksum only covers the payload, so the header's counts must
  // match the rest of the file before they size any allocation — a
  // bit-flipped edge count must reject gracefully (and be rebuilt from
  // raw), not die in std::bad_alloc.
  const uint64_t expect_payload =
      (static_cast<uint64_t>(n) + 1) * sizeof(uint64_t) +
      2 * m * sizeof(VertexId);
  if (payload_bytes != in.left() || m > in.left() / (2 * sizeof(VertexId)) ||
      payload_bytes != expect_payload) {
    std::cerr << "LoadGraphCache: header/payload size mismatch in " << path
              << '\n';
    return std::nullopt;
  }
  std::vector<uint64_t> offsets;
  std::vector<VertexId> adjacency;
  if (!in.ReadArray(&offsets, static_cast<uint64_t>(n) + 1) ||
      !in.ReadArray(&adjacency, 2 * m)) {
    std::cerr << "LoadGraphCache: truncated payload in " << path << '\n';
    return std::nullopt;
  }
  Fnv1a64 checksum;
  checksum.Update(offsets.data(), offsets.size());
  checksum.Update(adjacency.data(), adjacency.size());
  if (checksum.Digest() != stored_checksum) {
    std::cerr << "LoadGraphCache: payload checksum mismatch in " << path
              << " (corrupt cache; delete it and re-convert)" << '\n';
    return std::nullopt;
  }
  if (!Graph::IsValidCsr(offsets, adjacency)) {
    std::cerr << "LoadGraphCache: payload is not a valid CSR in " << path
              << '\n';
    return std::nullopt;
  }
  if (info != nullptr) *info = header;
  // IsValidCsr just proved every FromCsr invariant; adopt without a second
  // O(|V| + |E|) CHECK pass.
  return Graph::AdoptCsr(std::move(offsets), std::move(adjacency));
}

std::optional<Graph> Graph::LoadCached(const std::string& path) {
  return LoadGraphCache(path);
}

std::optional<Graph> LoadOrConvertDataset(const std::string& raw_path,
                                          const std::string& cache_path,
                                          DatasetCacheInfo* info) {
  std::error_code ec;
  // Size of the raw file currently on disk (0 when absent): compared with
  // the size recorded at conversion, so a re-downloaded/replaced raw file
  // triggers a rebuild instead of serving the stale cache forever.
  uint64_t raw_bytes_on_disk = 0;
  if (std::filesystem::exists(raw_path, ec)) {
    raw_bytes_on_disk = std::filesystem::file_size(raw_path, ec);
    if (ec) raw_bytes_on_disk = 0;
  }
  if (std::filesystem::exists(cache_path, ec)) {
    DatasetCacheInfo cached_info;
    auto cached = LoadGraphCache(cache_path, &cached_info);
    if (cached.has_value()) {
      if (raw_bytes_on_disk == 0 ||
          cached_info.raw_file_bytes == raw_bytes_on_disk) {
        if (info != nullptr) *info = cached_info;
        return cached;
      }
      std::cerr << "LoadOrConvertDataset: " << raw_path << " changed since "
                << cache_path << " was built; re-converting" << '\n';
    } else {
      std::cerr << "LoadOrConvertDataset: rebuilding rejected cache "
                << cache_path << " from " << raw_path << '\n';
    }
  }
  auto raw = ReadEdgeListAuto(raw_path);
  if (!raw.has_value()) return std::nullopt;

  DatasetCacheInfo built;
  built.raw_vertices = raw->NumVertices();
  built.raw_edges = raw->NumEdges();
  built.raw_file_bytes = raw_bytes_on_disk;
  Graph g;
  // One component pass decides connectivity AND feeds the extraction, so
  // the (typical) disconnected SNAP graph is traversed once, not twice.
  const ComponentInfo components = ConnectedComponents(*raw);
  if (components.num_components <= 1) {
    g = std::move(*raw);
  } else {
    built.largest_cc_extracted = true;
    g = LargestComponent(*raw, components).graph;
  }
  // A failed cache write is only a lost amortization, not a lost graph.
  if (!SaveGraphCache(g, built, cache_path)) {
    std::cerr << "LoadOrConvertDataset: could not write cache " << cache_path
              << " (continuing with the in-memory graph)" << '\n';
  }
  if (info != nullptr) *info = built;
  return g;
}

}  // namespace qbs
