// SIMD label-row scan kernels with runtime dispatch.
//
// The per-query label scan — ComputeLabelBound's fused row merge and
// ComputeAnchorCandidatesInto's present-entry extraction — is a dense
// O(|R|) loop executed on every query. This header vectorizes both with
// AVX2 (min-plus over du+dv for the upper bound, max-abs-diff over |du-dv|
// for the lower bound, movemask for presence). Each pair is scanned on its
// own, once per query; an interleaved multi-pair sweep did not make
// QueryBatch faster end to end.
//
// Bit-identity contract: every kernel produces byte-identical results to
// the scalar reference on every input (tests/simd_scan_test.cc asserts
// this over generated row families). The design that makes it provable:
//
//   * Label rows are padded to kLabelRowLaneAlign lanes with kInfDist
//     (core/labeling.h), so kernels scan full 16-lane blocks — an absent
//     lane contributes base 0 to the max, 0xFFFF to the min, and no
//     candidate.
//   * uint16 saturating adds are exact up to the sentinel: the saturated
//     row minimum equals min(true minimum, 0xFFFF), so the one case where
//     they can differ (saturated min == 0xFFFF with shared lanes present)
//     falls back to an exact 32-bit recompute — LabelBound::upper is
//     always the exact value.
//
// Dispatch: resolved once per process from CPUID (AVX2 support) and the
// QBS_FORCE_SCALAR_SCAN environment variable (non-empty, not "0" =
// forced scalar); SetActiveScanKernel flips the same process-wide switch
// programmatically. The scalar kernels are always
// compiled; the AVX2 kernels are compiled on x86-64 via per-function
// target attributes and selected only when the CPU reports AVX2.

#ifndef QBS_CORE_LABEL_SCAN_H_
#define QBS_CORE_LABEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/sketch.h"
#include "core/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QBS_HAVE_AVX2_KERNELS 1
#else
#define QBS_HAVE_AVX2_KERNELS 0
#endif

namespace qbs {

/// Which label-scan kernel family a ScanOps table implements.
enum class ScanKernel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// The kernel table. `lanes` is always the padded row stride (a multiple
/// of kLabelRowLaneAlign; 0 is legal and a no-op).
struct ScanOps {
  ScanKernel kernel;
  /// "scalar" / "avx2"; bench_e2e (frozen by BENCHMARK.json) reads it.
  const char* name;
  /// The fused two-row bound: max |du - dv| and min du + dv over the lanes
  /// present in both rows ({0, kUnreachable} when none is).
  LabelBound (*row_bound)(const DistT* ru, const DistT* rv, uint32_t lanes);
  /// Appends SketchAnchor{i, row[i]} for every present lane, ascending i.
  void (*row_candidates)(const DistT* row, uint32_t lanes,
                         std::vector<SketchAnchor>* out);
};

/// The scalar reference table (always available).
const ScanOps& ScalarScanOps();

/// The table for a specific kernel. Requesting kAvx2 where the kernels
/// are not compiled returns the scalar table.
const ScanOps& ScanOpsFor(ScanKernel kernel);

/// Every kernel table compiled into this binary that the RUNNING CPU can
/// execute (the differential harness iterates this).
std::vector<ScanKernel> SupportedScanKernels();

/// True iff the running CPU reports AVX2.
bool CpuHasAvx2();

/// Pure dispatch rule, exposed for the dispatch unit test: scalar when
/// the AVX2 kernels are not compiled, when the CPU lacks AVX2, or when
/// the env value forces it (non-null, non-empty, not "0").
ScanKernel ResolveScanKernel(bool cpu_has_avx2, const char* force_scalar_env);

/// The process-wide active table: resolved on first use from CPUID and
/// getenv("QBS_FORCE_SCALAR_SCAN"), overridable via SetActiveScanKernel.
const ScanOps& ActiveScanOps();
ScanKernel ActiveScanKernel();

/// Overrides the active kernel process-wide (tests and ablations).
/// Requesting kAvx2 without compiled/supported AVX2 kernels falls back to
/// scalar.
void SetActiveScanKernel(ScanKernel kernel);

/// --- Row-level entry point (kernel-dispatched). ---

/// ComputeLabelBound's row path for a NON-landmark pair u, v (their label
/// rows are scanned directly; landmark endpoints have no stored rows —
/// core/sketch.cc handles those via the virtual-entry merge). Bit-identical
/// to ComputeLabelBoundFromCandidates over the same rows.
LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, const ScanOps& ops);
LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v);

}  // namespace qbs

#endif  // QBS_CORE_LABEL_SCAN_H_
