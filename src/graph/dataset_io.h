// Real-dataset ingestion: raw SNAP/LAW edge lists -> a versioned binary
// graph cache that amortizes parsing and largest-CC extraction across runs.
//
// Cache format QBSGRF04 (little-endian, host-endianness — a single-machine
// artifact like the index files):
//   u64  magic 'QBSGRF04'
//   u32  num_vertices n
//   u64  num_undirected_edges m
//   u8   largest_cc_extracted        (1 = the CSR is the largest
//                                     connected component of the raw file,
//                                     vertices relabelled dense)
//                                    Either way the vertices keep the
//                                    order of their raw file ids.
//   u64  raw_vertices, raw_edges     (the raw file's counts before
//                                     extraction; == n, m when the raw
//                                     graph was already connected)
//   u64  raw_file_bytes              (on-disk size of the raw file the
//                                     cache was converted from; 0 = unknown)
//   u64  offsets[n + 1]              -- the CSR from here
//   u32  adjacency[2 m]
//   u64  checksum                    (Checksum64 of every preceding byte)
//
// The CSR is the Graph's verbatim, so a cache round trip is bit-identical:
// LoadGraphCache(p) after SaveGraphCache(g, ., p) yields exactly g's
// RawOffsets()/RawAdjacency(). The file is written and read through
// util/binary_io.h, the layer the index file uses too: saves are atomic
// (tmp file + rename), and loads verify the checksum and reject corrupt,
// truncated or over-long files. A cache in any retired version (QBSGRF01
// had another layout; QBSGRF02 may number vertices by first appearance in
// the raw file; QBSGRF03 had this layout under the serial one-lane
// Checksum64) is rejected by name, so LoadOrConvertDataset re-converts it.
//
// Raw files are read with ReadEdgeList (graph/edge_list_io.h), which
// decompresses ".gz" files itself. tools/fetch_datasets.py downloads them;
// workload/dataset_registry.h maps dataset names onto them.

#ifndef QBS_GRAPH_DATASET_IO_H_
#define QBS_GRAPH_DATASET_IO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/edge_list_io.h"
#include "graph/graph.h"

namespace qbs {

// Provenance recorded in a QBSGRF04 header alongside the CSR.
struct DatasetCacheInfo {
  // True when the cached graph is the largest connected component of the
  // raw edge list (vertices relabelled to a dense range), the reduction
  // the paper applies to every dataset.
  bool largest_cc_extracted = false;
  // The raw file's vertex/undirected-edge counts before extraction (after
  // dedup of parallel edges and removal of self-loops). Equal to the
  // cached graph's counts when the raw graph was already connected.
  uint64_t raw_vertices = 0;
  uint64_t raw_edges = 0;
  // On-disk byte size of the raw file the cache was converted from (0 =
  // unknown). LoadOrConvertDataset uses it to detect a re-downloaded /
  // replaced raw file and rebuild the cache instead of serving stale data.
  uint64_t raw_file_bytes = 0;
};

// LoadGraphCache reads the adjacency in chunks of this many entries
// (256 KB), checksumming each and checking the lists it completes while
// the chunk is still in cache.
inline constexpr uint64_t kGraphCacheChunkEntries =
    (uint64_t{256} << 10) / sizeof(VertexId);

// Writes `g` and its provenance to `path` in QBSGRF04 format, atomically.
// Returns false on I/O failure.
bool SaveGraphCache(const Graph& g, const DatasetCacheInfo& info,
                    const std::string& path);

// Reads a QBSGRF04 file. Verifies magic, header sanity, the checksum and
// the CSR; returns std::nullopt (with a stderr message) on any mismatch.
// A file that fails both the checksum and the CSR check reports the
// checksum.
// On success *info (when non-null) receives the header's provenance.
std::optional<Graph> LoadGraphCache(const std::string& path,
                                    DatasetCacheInfo* info = nullptr);

// The cache-or-convert entry point: loads `cache_path` if it exists and
// verifies, otherwise parses `raw_path` (gz-aware), extracts the largest
// connected component, writes the cache, and returns the graph. A cache
// that fails verification — or whose recorded raw-file size disagrees with
// a raw file currently on disk (a re-download replaced it) — is rebuilt
// from the raw file. *parsed_raw (when non-null) says whether the graph
// came from parsing the raw file rather than from the cache. Returns
// std::nullopt when neither source yields a graph.
std::optional<Graph> LoadOrConvertDataset(const std::string& raw_path,
                                          const std::string& cache_path,
                                          DatasetCacheInfo* info = nullptr,
                                          bool* parsed_raw = nullptr);

}  // namespace qbs

#endif  // QBS_GRAPH_DATASET_IO_H_
