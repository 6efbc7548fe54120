#include "graph/edge_list_io.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string_view>
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

// Vertex numbers must stay below this, so that |V| fits VertexId.
constexpr uint64_t kMaxVertices = std::numeric_limits<VertexId>::max();

// Numbers the vertices of `edges`, whose ids are at most `max_id`, by
// ascending id in place: a bitmap marks the ids present and per-word counts
// rank them. Returns the vertex count; ids 0..n-1 are left as they are.
VertexId NumberByBitmap(std::vector<Edge>* edges, uint64_t max_id) {
  std::vector<uint64_t> present(max_id / 64 + 1);
  for (const Edge& e : *edges) {
    present[e.u / 64] |= uint64_t{1} << (e.u % 64);
    present[e.v / 64] |= uint64_t{1} << (e.v % 64);
  }
  std::vector<VertexId> below(present.size());  // ids present before word w
  VertexId n = 0;
  for (size_t w = 0; w < present.size(); ++w) {
    below[w] = n;
    n += static_cast<VertexId>(std::popcount(present[w]));
  }
  if (n == max_id + 1) return n;
  const auto number = [&](VertexId id) {
    const uint64_t lower = present[id / 64] & ((uint64_t{1} << (id % 64)) - 1);
    return below[id / 64] + static_cast<VertexId>(std::popcount(lower));
  };
  for (Edge& e : *edges) e = Edge(number(e.u), number(e.v));
  return n;
}

// The parser behind both the plain and the gzip reader: pulls lines from
// `next_line` (false at end of input) and builds the graph, its vertices
// numbered by ascending file id. `origin` names the source in diagnostics.
std::optional<Graph> ReadLines(
    const std::function<bool(std::string*)>& next_line,
    const std::string& origin) {
  std::vector<Edge> edges;     // edges whose ids fit a vertex number
  std::vector<uint64_t> wide;  // both ids of every other edge
  uint64_t max_id = 0;
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
    max_id = std::max({max_id, a, b});
    if (std::max(a, b) < kMaxVertices - 1) {
      edges.emplace_back(static_cast<VertexId>(a), static_cast<VertexId>(b));
    } else {
      wide.insert(wide.end(), {a, b});
    }
  }
  // A bitmap over 0..max_id numbers the ids when it is no larger than the
  // edge list; ids past 32 bits, or ones that leave most of 0..max_id
  // unused, are ranked in a sorted table of the distinct ids instead.
  VertexId n = 0;
  if (wide.empty() && max_id / 64 <= edges.size()) {
    n = NumberByBitmap(&edges, max_id);
  } else {
    for (const Edge& e : edges) wide.insert(wide.end(), {e.u, e.v});
    std::vector<uint64_t> ids = wide;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.size() >= kMaxVertices) {
      std::cerr << "ReadEdgeList: too many vertices in " << origin << '\n';
      return std::nullopt;
    }
    n = static_cast<VertexId>(ids.size());
    const auto rank = [&](uint64_t id) {
      return static_cast<VertexId>(
          std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
    };
    edges.clear();
    for (size_t i = 0; i < wide.size(); i += 2) {
      edges.emplace_back(rank(wide[i]), rank(wide[i + 1]));
    }
  }
  if (!edges.empty() && n != max_id + 1) {
    std::cerr << "ReadEdgeList: " << origin << ": ids are not 0.." << n - 1
              << "; vertices are numbered by ascending id" << '\n';
  }
  return Graph::FromEdges(n, std::move(edges));
}

#ifdef QBS_HAVE_ZLIB
std::optional<Graph> ReadGzEdgeList(const std::string& path) {
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
  auto graph = ReadLines(next_line, path);
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

std::optional<Graph> ReadEdgeList(const std::string& path) {
  if (path.ends_with(".gz")) {
#ifdef QBS_HAVE_ZLIB
    return ReadGzEdgeList(path);
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
      path);
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
