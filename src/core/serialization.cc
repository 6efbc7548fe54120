#include "core/serialization.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/binary_io.h"

namespace qbs {
namespace {

constexpr uint64_t kMagic = 0x3330584449534251ull;  // "QBSIDX03"

// Sections are copied between memory and the file verbatim, so the
// in-memory records must be the on-disk records.
static_assert(sizeof(MetaEdge) == 3 * sizeof(uint32_t) &&
              std::is_trivially_copyable_v<MetaEdge>);

std::nullopt_t Reject(const std::string& why) {
  std::cerr << "LoadLabelingScheme: " << why << '\n';
  return std::nullopt;
}

// True iff the landmark ids are in range and pairwise distinct.
bool ValidLandmarks(std::vector<VertexId> landmarks, VertexId n) {
  std::sort(landmarks.begin(), landmarks.end());
  return (landmarks.empty() || landmarks.back() < n) &&
         std::adjacent_find(landmarks.begin(), landmarks.end()) ==
             landmarks.end();
}

}  // namespace

bool SaveLabelingScheme(const LabelingScheme& scheme,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "SaveLabelingScheme: cannot open " << path << '\n';
    return false;
  }
  Checksum64 sum;
  const auto write = [&](const auto* data, uint64_t count) {
    WriteArray(out, data, count);
    sum.Update(data, count);
  };
  const PathLabeling& l = scheme.labeling;
  const VertexId n = l.num_vertices();
  const uint32_t k = l.num_landmarks();
  const auto& edges = scheme.meta.Edges();
  const uint64_t num_edges = edges.size();
  write(&kMagic, 1);
  write(&n, 1);
  write(&k, 1);
  write(l.landmarks().data(), k);
  // The label rows without their lane padding, as one block.
  std::vector<DistT> rows(static_cast<size_t>(n) * k);
  for (VertexId v = 0; v < n; ++v) {
    std::copy_n(l.Row(v), k, rows.data() + static_cast<size_t>(v) * k);
  }
  write(rows.data(), rows.size());
  write(&num_edges, 1);
  write(edges.data(), num_edges);
  WritePod(out, sum.Digest());
  return static_cast<bool>(out);
}

std::optional<LabelingScheme> LoadLabelingScheme(
    const std::string& path, std::optional<VertexId> num_vertices) {
  BinaryReader in(path);
  if (!in.is_open()) return Reject("cannot open " + path);
  // Every section read is folded into the checksum from its buffer.
  Checksum64 sum;
  const auto read = [&](auto* data, uint64_t count = 1) {
    if (!in.Read(data, count)) return false;
    sum.Update(data, count);
    return true;
  };
  const auto read_array = [&](auto* out, uint64_t count) {
    if (!in.ReadArray(out, count)) return false;
    sum.Update(out->data(), count);
    return true;
  };
  uint64_t magic = 0;
  VertexId n = 0;
  uint32_t k = 0;
  if (!read(&magic) || magic != kMagic) {
    return Reject("not a QBSIDX03 index: " + path);
  }
  if (!read(&n) || !read(&k)) return Reject("bad header in " + path);
  if (num_vertices.has_value() && n != *num_vertices) {
    return Reject("index was built for " + std::to_string(n) +
                  " vertices, graph has " + std::to_string(*num_vertices));
  }
  // Every section is read whole into a buffer the header sizes, each size
  // checked against the rest of the file first. The labelling itself is
  // allocated only once all of the file has been read and validated.
  std::vector<VertexId> landmarks;
  if (!read_array(&landmarks, k) || !ValidLandmarks(landmarks, n)) {
    return Reject("bad landmarks");
  }
  std::vector<DistT> labels;
  if (!read_array(&labels, static_cast<uint64_t>(n) * k)) {
    return Reject("truncated labels");
  }
  uint64_t num_edges = 0;
  std::vector<MetaEdge> edges;
  if (!read(&num_edges) || !read_array(&edges, num_edges)) {
    return Reject("truncated meta-edges");
  }
  uint64_t checksum = 0;
  if (!in.Read(&checksum)) return Reject("truncated checksum");
  if (checksum != sum.Digest()) return Reject("checksum mismatch in " + path);
  if (in.left() != 0) return Reject("trailing bytes after the checksum");

  LabelingScheme scheme;
  // k <= n (distinct landmarks below n) and n * k label bytes are in the
  // file, so the k x k meta-graph matrices are bounded by the file too.
  scheme.meta = MetaGraph(k);
  for (const MetaEdge& e : edges) {
    if (e.a >= k || e.b >= k || e.a == e.b || e.weight == 0 ||
        e.weight == kUnreachable) {
      return Reject("bad meta-edge");
    }
    const uint32_t known = scheme.meta.EdgeWeight(e.a, e.b);
    if (known != kUnreachable && known != e.weight) {
      return Reject("meta-edge listed twice with different weights");
    }
    scheme.meta.AddEdge(e.a, e.b, e.weight);
  }
  scheme.meta.Finalize();
  scheme.labeling = PathLabeling(n, std::move(landmarks));
  scheme.labeling.AssignFromRows(labels);
  return scheme;
}

}  // namespace qbs
