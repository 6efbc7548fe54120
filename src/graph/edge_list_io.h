// Reading and writing SNAP-style whitespace-separated edge lists.
//
// The paper evaluates on 12 public datasets distributed in this format
// (SNAP, KONECT, LAW, Lemur). This loader lets those real files drop into
// the benchmark harness unchanged; the offline test environment uses the
// synthetic dataset registry instead.

#ifndef QBS_GRAPH_EDGE_LIST_IO_H_
#define QBS_GRAPH_EDGE_LIST_IO_H_

#include <optional>
#include <string>

#include "graph/graph.h"

namespace qbs {

struct EdgeListReadOptions {
  // If true, arbitrary (possibly sparse, 64-bit) ids in the file are
  // relabelled to a dense [0, n) range in first-appearance order. If false,
  // ids are used verbatim and must fit VertexId.
  bool relabel = true;
  // Directed input is treated as undirected (as the paper does; Table 1's
  // |E_un| column).
};

// Reads an edge list from `path`, one "u v" pair per line; lines starting
// with '#' or '%' (SNAP and KONECT headers) are skipped. Paths ending in
// ".gz" are decompressed on the fly when the build has zlib, and fail with
// a message otherwise. Returns std::nullopt on I/O or parse failure (a
// message naming file:line is written to stderr).
std::optional<Graph> ReadEdgeList(const std::string& path,
                                  const EdgeListReadOptions& options = {});

// True when this build can decompress ".gz" edge lists (zlib was found).
bool GzipSupported();

// Writes `g` as "u v" lines, one undirected edge per line, preceded by a
// "# vertices edges" comment header. Returns false on I/O failure.
bool WriteEdgeList(const Graph& g, const std::string& path);

}  // namespace qbs

#endif  // QBS_GRAPH_EDGE_LIST_IO_H_
