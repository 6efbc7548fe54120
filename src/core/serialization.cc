#include "core/serialization.h"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/binary_io.h"

namespace qbs {
namespace {

constexpr uint64_t kMagic = 0x3430584449534251ull;  // "QBSIDX04"

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
  BinaryWriter out(path);
  const PathLabeling& l = scheme.labeling;
  const VertexId n = l.num_vertices();
  const uint32_t k = l.num_landmarks();
  const auto& edges = scheme.meta.Edges();
  const uint64_t num_edges = edges.size();
  out.Write(&kMagic);
  out.Write(&n);
  out.Write(&k);
  out.Write(l.landmarks().data(), k);
  // The in-memory matrix is the file's label block.
  out.Write(l.Rows().data(), l.Rows().size());
  out.Write(&num_edges);
  out.Write(edges.data(), num_edges);
  if (!out.Commit()) {
    std::cerr << "SaveLabelingScheme: cannot write " << path << '\n';
    return false;
  }
  return true;
}

std::optional<LabelingScheme> LoadLabelingScheme(
    const std::string& path, std::optional<VertexId> num_vertices) {
  BinaryReader in(path);
  if (!in.is_open()) return Reject("cannot open " + path);
  uint64_t magic = 0;
  VertexId n = 0;
  uint32_t k = 0;
  if (!in.Read(&magic) || magic != kMagic) {
    const std::string retired = RetiredMagic(magic, kMagic);
    if (!retired.empty()) {
      return Reject("retired " + retired +
                    " index (rebuild it with `qbs build`): " + path);
    }
    return Reject("not a QBSIDX04 index: " + path);
  }
  if (!in.Read(&n) || !in.Read(&k)) return Reject("bad header in " + path);
  if (num_vertices.has_value() && n != *num_vertices) {
    return Reject("index was built for " + std::to_string(n) +
                  " vertices, graph has " + std::to_string(*num_vertices));
  }
  // Every section is read whole into a buffer the header sizes, each size
  // checked against the rest of the file first. The label buffer becomes
  // the labelling's matrix once all of the file has been read and
  // validated, so the matrix is allocated once and never copied.
  std::vector<VertexId> landmarks;
  if (!in.ReadArray(&landmarks, k) || !ValidLandmarks(landmarks, n)) {
    return Reject("bad landmarks");
  }
  std::vector<DistT> labels;
  if (!in.ReadArray(&labels, static_cast<uint64_t>(n) * k)) {
    return Reject("truncated labels");
  }
  uint64_t num_edges = 0;
  std::vector<MetaEdge> edges;
  if (!in.Read(&num_edges) || !in.ReadArray(&edges, num_edges)) {
    return Reject("truncated meta-edges");
  }
  if (!in.VerifyChecksum()) {
    return Reject("checksum mismatch or trailing bytes in " + path);
  }

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
  scheme.labeling = PathLabeling(n, std::move(landmarks), std::move(labels));
  return scheme;
}

}  // namespace qbs
