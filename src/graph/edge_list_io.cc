#include "graph/edge_list_io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef QBS_HAVE_ZLIB
#include <zlib.h>
#endif

namespace qbs {
namespace {

// Lines starting with one of these are headers (SNAP '#', KONECT '%').
constexpr std::string_view kCommentPrefixes = "#%";

// Reads one decimal id; false when there is none or it does not fit 64 bits.
bool ParseUint64(const char*& p, uint64_t* out) {
  while (*p == ' ' || *p == '\t' || *p == ',') ++p;
  if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t value = 0;
  while (std::isdigit(static_cast<unsigned char>(*p))) {
    const auto digit = static_cast<uint64_t>(*p - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
    ++p;
  }
  *out = value;
  return true;
}

// The parser behind both the plain and the gzip reader: pulls lines from
// `next_line` (false at end of input) and builds the graph. `origin` names
// the source in diagnostics.
std::optional<Graph> ReadLines(
    const std::function<bool(std::string*)>& next_line,
    const EdgeListReadOptions& options, const std::string& origin) {
  std::vector<Edge> edges;
  VertexId num_vertices = 0;
  std::unordered_map<uint64_t, VertexId> relabel_map;
  auto map_id = [&](uint64_t raw) -> VertexId {
    if (!options.relabel) {
      const auto id = static_cast<VertexId>(raw);
      num_vertices = std::max(num_vertices, id + 1);
      return id;
    }
    const auto [it, inserted] =
        relabel_map.try_emplace(raw, static_cast<VertexId>(relabel_map.size()));
    if (inserted) ++num_vertices;
    return it->second;
  };

  std::string line;
  size_t line_no = 0;
  while (next_line(&line)) {
    ++line_no;
    if (line.empty()) continue;
    if (kCommentPrefixes.find(line[0]) != std::string_view::npos) continue;
    const char* p = line.c_str();
    uint64_t a = 0;
    uint64_t b = 0;
    if (!ParseUint64(p, &a) || !ParseUint64(p, &b)) {
      std::cerr << "ReadEdgeList: parse error at " << origin << ":" << line_no
                << '\n';
      return std::nullopt;
    }
    // The vertex count id + 1 must fit VertexId too.
    if (!options.relabel && (a >= std::numeric_limits<VertexId>::max() ||
                             b >= std::numeric_limits<VertexId>::max())) {
      std::cerr << "ReadEdgeList: id overflow at " << origin << ":" << line_no
                << " (enable relabel)" << '\n';
      return std::nullopt;
    }
    // Sequence the lookups: first-appearance relabelling must follow the
    // file's left-to-right order (argument evaluation order is unspecified).
    const VertexId ua = map_id(a);
    const VertexId vb = map_id(b);
    edges.emplace_back(ua, vb);
  }
  return Graph::FromEdges(num_vertices, std::move(edges));
}

bool HasGzSuffix(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

#ifdef QBS_HAVE_ZLIB
std::optional<Graph> ReadGzEdgeList(const std::string& path,
                                    const EdgeListReadOptions& options) {
  gzFile gz = gzopen(path.c_str(), "rb");
  if (gz == nullptr) {
    std::cerr << "ReadEdgeList: cannot open " << path << '\n';
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
  auto graph = ReadLines(next_line, options, path);
  gzclose(gz);
  if (stream_error) {
    std::cerr << "ReadEdgeList: gzip stream error in " << path << '\n';
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

std::optional<Graph> ReadEdgeList(const std::string& path,
                                  const EdgeListReadOptions& options) {
  if (HasGzSuffix(path)) {
#ifdef QBS_HAVE_ZLIB
    return ReadGzEdgeList(path, options);
#else
    std::cerr << "ReadEdgeList: " << path
              << " is gzip-compressed but this build has no zlib; "
                 "decompress it first (gunzip)"
              << '\n';
    return std::nullopt;
#endif
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ReadEdgeList: cannot open " << path << '\n';
    return std::nullopt;
  }
  return ReadLines(
      [&in](std::string* line) {
        return static_cast<bool>(std::getline(in, *line));
      },
      options, path);
}

bool WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "WriteEdgeList: cannot open " << path << '\n';
    return false;
  }
  out << "# " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (v < w) out << v << " " << w << "\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace qbs
