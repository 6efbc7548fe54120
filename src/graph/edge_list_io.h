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

// Reads an edge list from `path`, one "u v" pair per line; lines starting
// with '#' or '%' (SNAP and KONECT headers) are skipped. Vertices are
// numbered by ascending file id, so a file using every id 0..n-1 keeps its
// ids; other (sparse, 64-bit) ids are compacted, with a note on stderr.
// Directed input is read as undirected, as the paper does (Table 1's
// |E_un|). Paths ending in ".gz" are decompressed when the build has zlib,
// and fail with a message otherwise. Returns std::nullopt on I/O or parse
// failure (a message naming file:line is written to stderr).
std::optional<Graph> ReadEdgeList(const std::string& path);

// True when this build can decompress ".gz" edge lists (zlib was found).
bool GzipSupported();

// Writes `g` as "u v" lines, one undirected edge per line, preceded by a
// "# vertices edges" comment header. Returns false on I/O failure.
bool WriteEdgeList(const Graph& g, const std::string& path);

}  // namespace qbs

#endif  // QBS_GRAPH_EDGE_LIST_IO_H_
