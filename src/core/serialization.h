// Binary persistence for the labelling scheme, so the offline phase runs
// once and query servers load the precomputed index at startup.
//
// Current format (version QBSIDX04, little-endian, host-endianness — the
// index is a single-machine artifact like the paper's):
//   u64  magic 'QBSIDX04'
//   u32  num_vertices
//   u32  num_landmarks k
//   u32  landmarks[k]            (vertex ids)
//   u16  labels[num_vertices*k]  (kInfDist = absent)
//   u64  num_meta_edges
//   (u32 a, u32 b, u32 weight) * num_meta_edges
//   u64  checksum                (Checksum64 of every preceding byte)
//
// This is the only format the loader reads; files with any other magic
// are rejected, and an older version (QBSIDX03 had this layout under the
// serial one-lane Checksum64) by name.
//
// The file is written and read through util/binary_io.h's BinaryWriter
// and BinaryReader, the layer the graph cache uses too: a save goes to
// `path + ".tmp"` and is renamed into place, so a failed save leaves any
// previous file at `path` intact. Each section moves with one stream call
// and is folded into the checksum from its in-memory buffer. Counts are
// checked against the file's size before they size an allocation; a
// checksum mismatch, duplicate landmarks, conflicting meta-edge weights
// and trailing bytes are rejected too.
//
// The Δ cache is intentionally not stored: rebuilding it from the loaded
// labels is a fast parallel pass, and skipping it keeps files small.

#ifndef QBS_CORE_SERIALIZATION_H_
#define QBS_CORE_SERIALIZATION_H_

#include <optional>
#include <string>

#include "core/labeling.h"

namespace qbs {

// Writes the labelling scheme to `path`, atomically. Returns false on I/O
// failure (a message goes to stderr).
bool SaveLabelingScheme(const LabelingScheme& scheme,
                        const std::string& path);

// Reads a labelling scheme previously written by SaveLabelingScheme.
// Returns std::nullopt on I/O failure, bad magic, or a corrupt layout.
// With `num_vertices` given, a header for any other |V| is rejected before
// anything is allocated: an |R| = 0 file holds no per-vertex bytes, so
// only the caller's graph can bound its |V|.
std::optional<LabelingScheme> LoadLabelingScheme(
    const std::string& path,
    std::optional<VertexId> num_vertices = std::nullopt);

}  // namespace qbs

#endif  // QBS_CORE_SERIALIZATION_H_
