// SIMD label-row scan kernels with runtime dispatch.
//
// The per-query label scan — ComputeLabelBound's fused row merge,
// ComputeAnchorCandidatesInto's present-entry extraction, and the guided
// search's per-frontier-vertex lower-bound check — is a dense O(|R|) loop
// executed on every query. This header vectorizes all three with AVX2
// (min-plus over du+dv for the upper bound, max-abs-diff over |du-dv| for
// the lower bound, movemask for presence and refine-gate bits). Each pair
// is scanned on its own, once per query; an interleaved multi-pair sweep
// did not make QueryBatch faster end to end.
//
// Bit-identity contract: every kernel produces byte-identical results to
// the scalar reference on every input (tests/simd_scan_test.cc asserts
// this over generated row families). The design that makes it provable:
//
//   * Label rows are padded to kLabelRowLaneAlign lanes with kInfDist
//     (core/labeling.h), so kernels scan full 16-lane blocks — an absent
//     lane contributes base 0 to the max, 0xFFFF to the min, and no
//     candidate/gate bit.
//   * uint16 saturating adds are exact up to the sentinel: the saturated
//     row minimum equals min(true minimum, 0xFFFF), so the one case where
//     they can differ (saturated min == 0xFFFF with shared lanes present)
//     falls back to an exact 32-bit recompute — RowAgg::sum_min is always
//     the exact value.
//   * Everything order-dependent or mask-touching (the -2/-1 upper
//     refinement, the +1 lower lift) lives in one shared scalar post-pass
//     (FinishRowBound) driven by a per-lane candidate bitmask. Kernels
//     may OVER-approximate the refine gate (the saturating compare admits
//     lanes whose true 32-bit sum exceeds the limit); the post-pass
//     re-gates every candidate lane with the exact sum, so the final
//     LabelBound is identical no matter which kernel filled the bits.
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

/// Order-independent aggregates of one fused two-row scan, prior to the
/// mask post-pass. sum_min is EXACT (32-bit; kernels recompute on
/// saturation), so FinishRowBound never needs the rows for the unrefined
/// upper bound.
struct RowAgg {
  uint32_t base_max = 0;            ///< max |du - dv| over shared lanes
  uint32_t sum_min = kUnreachable;  ///< min du + dv over shared lanes
  bool any = false;                 ///< any lane present in both rows
};

/// The kernel table. `lanes` is always the padded row stride (a multiple
/// of kLabelRowLaneAlign; 0 is legal and a no-op). `gate_limit` is the
/// 16-bit clamp of max_refinable; kernels set bit i of gate_words for
/// every shared lane whose SATURATED sum is <= gate_limit (a superset of
/// the exactly-gated lanes; callers re-check with exact sums).
/// gate_words spans lanes/64 (rounded up) zeroed words when non-null.
struct ScanOps {
  ScanKernel kernel;
  const char* name;
  /// Fused two-row aggregate + refine-gate bits.
  void (*row_bound)(const DistT* ru, const DistT* rv, uint32_t lanes,
                    uint16_t gate_limit, RowAgg* agg, uint64_t* gate_words);
  /// Appends SketchAnchor{i, row[i]} for every present lane, ascending i.
  void (*row_candidates)(const DistT* row, uint32_t lanes,
                         std::vector<SketchAnchor>* out);
  /// True iff some shared lane has |rx - ro| > threshold, or == threshold
  /// with a BpMaskLowerLift witness (mx/mo are the unpadded mask rows;
  /// only consulted for lanes exactly at the threshold). threshold must
  /// be <= 0xFFFE (the maximum representable base).
  bool (*lower_exceeds)(const DistT* rx, const DistT* ro, const BpMask* mx,
                        const BpMask* mo, uint32_t lanes, uint16_t threshold);
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

/// --- Row-level entry points (kernel-dispatched). ---

/// ComputeLabelBound's row path for a NON-landmark pair u, v (their label
/// rows are scanned directly; landmark endpoints have no stored rows —
/// core/sketch.cc handles those via the virtual-entry merge). Bit-identical
/// to ComputeLabelBoundFromCandidates over the same rows.
LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, uint32_t refine_cutoff,
                                 const ScanOps& ops);
LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, uint32_t refine_cutoff);

/// The guided search's per-frontier-vertex prune check (see
/// GuidedSearcher::LabelLowerBoundExceeds): true iff the label rows of x
/// and `other` certify d_G(x, other) > threshold. Requires
/// labeling.has_bp_masks().
bool RowLowerBoundExceeds(const PathLabeling& labeling, VertexId x,
                          VertexId other, uint32_t threshold,
                          const ScanOps& ops);

/// The shared scalar post-pass, exposed for the differential harness:
/// folds the mask refinement (-2/-1 on the upper bound) and the lower
/// lift (+1 where a gated lane at base_max has a BpMaskLowerLift witness)
/// into the kernel aggregates. `gate_words` may over-approximate the
/// refine gate; every candidate lane is re-gated with its exact sum.
LabelBound FinishRowBound(const RowAgg& agg, const uint64_t* gate_words,
                          uint32_t lanes, const DistT* ru, const DistT* rv,
                          const BpMask* mu, const BpMask* mv,
                          uint32_t max_refinable);

}  // namespace qbs

#endif  // QBS_CORE_LABEL_SCAN_H_
