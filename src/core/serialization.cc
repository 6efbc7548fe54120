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

constexpr uint64_t kMagicV2 = 0x3230584449534251ull;  // "QBSIDX02"

// Sections are copied between memory and the file verbatim, so the
// in-memory records must be the on-disk records.
static_assert(sizeof(BpMask) == 2 * sizeof(uint64_t) &&
              std::is_trivially_copyable_v<BpMask>);
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
  const PathLabeling& l = scheme.labeling;
  const VertexId n = l.num_vertices();
  const uint32_t k = l.num_landmarks();
  WritePod(out, kMagicV2);
  WritePod(out, n);
  WritePod(out, k);
  WriteArray(out, l.landmarks().data(), k);
  // The label rows without their lane padding, as one block.
  std::vector<DistT> rows(static_cast<size_t>(n) * k);
  for (VertexId v = 0; v < n; ++v) {
    std::copy_n(l.Row(v), k, rows.data() + static_cast<size_t>(v) * k);
  }
  WriteArray(out, rows.data(), rows.size());
  const uint8_t has_bp = l.has_bp_masks() ? 1 : 0;
  WritePod(out, has_bp);
  if (has_bp != 0) {
    for (LandmarkIndex i = 0; i < k; ++i) {
      const auto& selected = l.BpSelected(i);
      WritePod(out, static_cast<uint32_t>(selected.size()));
      WriteArray(out, selected.data(), selected.size());
    }
    // The mask matrix is one contiguous vertex-major block from row 0.
    WriteArray(out, l.BpRow(0), static_cast<uint64_t>(n) * k);
  }
  const auto& edges = scheme.meta.Edges();
  WritePod(out, static_cast<uint64_t>(edges.size()));
  WriteArray(out, edges.data(), edges.size());
  return static_cast<bool>(out);
}

std::optional<LabelingScheme> LoadLabelingScheme(
    const std::string& path, std::optional<VertexId> num_vertices) {
  BinaryReader in(path);
  if (!in.is_open()) return Reject("cannot open " + path);
  uint64_t magic = 0;
  VertexId n = 0;
  uint32_t k = 0;
  if (!in.Read(&magic) || magic != kMagicV2 || !in.Read(&n) ||
      !in.Read(&k)) {
    return Reject("bad header in " + path);
  }
  if (num_vertices.has_value() && n != *num_vertices) {
    return Reject("index was built for " + std::to_string(n) +
                  " vertices, graph has " + std::to_string(*num_vertices));
  }
  // Every section is read whole into a buffer the header sizes, each size
  // checked against the rest of the file first. The labelling itself is
  // allocated only once all of the file has been read and validated.
  std::vector<VertexId> landmarks;
  if (!in.ReadArray(&landmarks, k) || !ValidLandmarks(landmarks, n)) {
    return Reject("bad landmarks");
  }
  std::vector<DistT> labels;
  if (!in.ReadArray(&labels, static_cast<uint64_t>(n) * k)) {
    return Reject("truncated labels");
  }
  uint8_t has_bp = 0;
  if (!in.Read(&has_bp) || has_bp > 1) {
    return Reject("bad bit-parallel flag");
  }
  std::vector<std::vector<VertexId>> selected(has_bp == 1 ? k : 0);
  for (auto& s : selected) {
    uint32_t count = 0;
    if (!in.Read(&count) || count > 64 || !in.ReadArray(&s, count) ||
        std::any_of(s.begin(), s.end(), [n](VertexId w) { return w >= n; })) {
      return Reject("bad selected-neighbour set");
    }
  }
  std::vector<BpMask> masks;
  if (has_bp == 1 && !in.ReadArray(&masks, static_cast<uint64_t>(n) * k)) {
    return Reject("truncated masks");
  }
  uint64_t num_edges = 0;
  std::vector<MetaEdge> edges;
  if (!in.Read(&num_edges) || !in.ReadArray(&edges, num_edges)) {
    return Reject("truncated meta-edges");
  }
  if (in.left() != 0) return Reject("trailing bytes after meta-edges");

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
  if (has_bp == 1) {
    scheme.labeling.AssignBpMasks(std::move(selected), std::move(masks));
  }
  return scheme;
}

}  // namespace qbs
