#include "graph/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "util/binary_io.h"

namespace qbs {
namespace {

constexpr uint64_t kMagic = 0x3430465247534251ull;  // "QBSGRF04"

}  // namespace

bool SaveGraphCache(const Graph& g, const DatasetCacheInfo& info,
                    const std::string& path) {
  // An empty Graph has no offsets array at all; persist it as the
  // canonical one-entry CSR so the loader's n+1 offsets always exist.
  static constexpr uint64_t kEmptyOffsets[1] = {0};
  auto offsets = g.RawOffsets();
  if (offsets.empty()) offsets = kEmptyOffsets;
  const auto adjacency = g.RawAdjacency();
  const VertexId n = g.NumVertices();
  const uint64_t m = g.NumEdges();
  const uint8_t cc_flag = info.largest_cc_extracted ? 1 : 0;
  BinaryWriter out(path);
  out.Write(&kMagic);
  out.Write(&n);
  out.Write(&m);
  out.Write(&cc_flag);
  out.Write(&info.raw_vertices);
  out.Write(&info.raw_edges);
  out.Write(&info.raw_file_bytes);
  out.Write(offsets.data(), offsets.size());
  out.Write(adjacency.data(), adjacency.size());
  if (!out.Commit()) {
    std::cerr << "SaveGraphCache: cannot write " << path << '\n';
    return false;
  }
  return true;
}

std::optional<Graph> LoadGraphCache(const std::string& path,
                                    DatasetCacheInfo* info) {
  const auto reject = [&](const std::string& why) {
    std::cerr << "LoadGraphCache: " << why << ": " << path << '\n';
    return std::nullopt;
  };
  BinaryReader in(path);
  if (!in.is_open()) return reject("cannot open");
  uint64_t magic = 0;
  if (!in.Read(&magic)) return reject("bad header");
  if (magic != kMagic) {
    const std::string retired = RetiredMagic(magic, kMagic);
    if (!retired.empty()) {
      return reject("retired " + retired + " cache (re-convert it)");
    }
    return reject("not a QBSGRF04 graph cache");
  }
  VertexId n = 0;
  uint64_t m = 0;
  uint8_t cc_flag = 0;
  DatasetCacheInfo header;
  if (!in.Read(&n) || !in.Read(&m) || !in.Read(&cc_flag) || cc_flag > 1 ||
      !in.Read(&header.raw_vertices) || !in.Read(&header.raw_edges) ||
      !in.Read(&header.raw_file_bytes)) {
    return reject("bad header");
  }
  header.largest_cc_extracted = cc_flag == 1;
  // The counts are bounded by the bytes left before they size an
  // allocation — m before the 2m product, which could wrap — so a
  // bit-flipped count rejects gracefully (and is rebuilt from raw) instead
  // of dying in std::bad_alloc.
  std::vector<uint64_t> offsets;
  if (m > in.left() / (2 * sizeof(VertexId)) ||
      !in.ReadArray(&offsets, static_cast<uint64_t>(n) + 1) ||
      2 * m > in.left() / sizeof(VertexId)) {
    return reject("truncated CSR");
  }
  std::vector<VertexId> adjacency(2 * m);
  // The adjacency is read a chunk at a time, and each chunk is checksummed
  // and the lists it completes are checked while it is still in cache, so
  // the file's bytes are walked once. Offsets that fail their check steer
  // no list read; either way the whole file is read, so a file bad in both
  // ways reports the checksum.
  bool valid = Graph::ValidCsrOffsets(offsets, adjacency.size());
  VertexId checked = 0;  // the lists of [0, checked) are checked
  for (uint64_t at = 0; at < adjacency.size();) {
    const uint64_t end =
        std::min<uint64_t>(at + kGraphCacheChunkEntries, adjacency.size());
    if (!in.Read(adjacency.data() + at, end - at)) {
      return reject("truncated CSR");
    }
    at = end;
    if (!valid) continue;
    // Every list that ends at or before `end` is complete.
    const auto complete = static_cast<VertexId>(
        std::upper_bound(offsets.begin() + checked + 1, offsets.end(), end) -
        offsets.begin() - 1);
    valid = Graph::ValidCsrLists(offsets, adjacency, checked, complete);
    checked = complete;
  }
  if (!in.VerifyChecksum()) {
    return reject("checksum mismatch (corrupt cache; re-convert it)");
  }
  if (!valid) return reject("not a valid CSR");
  if (info != nullptr) *info = header;
  // Every FromCsr invariant was just proved; adopt without a second
  // O(|V| + |E|) CHECK pass.
  return Graph::AdoptCsr(std::move(offsets), std::move(adjacency));
}

std::optional<Graph> LoadOrConvertDataset(const std::string& raw_path,
                                          const std::string& cache_path,
                                          DatasetCacheInfo* info,
                                          bool* parsed_raw) {
  if (parsed_raw != nullptr) *parsed_raw = false;
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
  auto raw = ReadEdgeList(raw_path);
  if (!raw.has_value()) return std::nullopt;
  if (parsed_raw != nullptr) *parsed_raw = true;

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
