#include "core/label_scan.h"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "util/check.h"

#if QBS_HAVE_AVX2_KERNELS
#include <immintrin.h>
#endif

namespace qbs {
namespace {

// --- Scalar reference kernels. ---

LabelBound RowBoundScalar(const DistT* ru, const DistT* rv, uint32_t lanes) {
  LabelBound bound;
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT du = ru[i];
    const DistT dv = rv[i];
    if (du == kInfDist || dv == kInfDist) continue;
    const uint32_t base = du > dv ? du - dv : dv - du;
    if (base > bound.lower) bound.lower = base;
    const uint32_t sum = static_cast<uint32_t>(du) + dv;
    if (sum < bound.upper) bound.upper = sum;
  }
  return bound;
}

void RowCandidatesScalar(const DistT* row, uint32_t lanes,
                         std::vector<SketchAnchor>* out) {
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT d = row[i];
    if (d != kInfDist) out->push_back(SketchAnchor{i, d});
  }
}

const ScanOps kScalarOps = {ScanKernel::kScalar, "scalar", RowBoundScalar,
                            RowCandidatesScalar};

#if QBS_HAVE_AVX2_KERNELS

// --- AVX2 kernels: 16 uint16 lanes per 256-bit vector. ---

// Compacts a 32-bit epi8 movemask of 16-bit-lane compare results (2
// identical bits per lane) into one bit per lane.
inline uint32_t CompactLaneMask(uint32_t m) {
  m &= 0x55555555u;
  m = (m | (m >> 1)) & 0x33333333u;
  m = (m | (m >> 2)) & 0x0F0F0F0Fu;
  m = (m | (m >> 4)) & 0x00FF00FFu;
  m = (m | (m >> 8)) & 0x0000FFFFu;
  return m;
}

__attribute__((target("avx2"))) inline uint16_t HMinEpu16(__m256i v) {
  const __m128i folded = _mm_min_epu16(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
  // minpos returns the minimum of 8 uint16 lanes in the low word.
  return static_cast<uint16_t>(
      _mm_cvtsi128_si32(_mm_minpos_epu16(folded)) & 0xFFFF);
}

__attribute__((target("avx2"))) inline uint16_t HMaxEpu16(__m256i v) {
  // max = ~min(~v): complement maps the unsigned order onto itself
  // reversed, and minpos only exists for minimums.
  const __m256i inv = _mm256_xor_si256(v, _mm256_set1_epi16(-1));
  return static_cast<uint16_t>(0xFFFFu - HMinEpu16(inv));
}

// One 16-lane block of the fused two-row scan.
__attribute__((target("avx2"))) inline void RowBoundBlockAvx2(
    const DistT* ru, const DistT* rv, uint32_t i, __m256i* vbase,
    __m256i* vmin, __m256i* vany) {
  const __m256i inf = _mm256_set1_epi16(-1);
  const __m256i du =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(ru + i));
  const __m256i dv =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(rv + i));
  // A lane participates only when present in BOTH rows; padding lanes are
  // kInfDist on every row, so they are absent here by construction.
  const __m256i absent = _mm256_or_si256(_mm256_cmpeq_epi16(du, inf),
                                         _mm256_cmpeq_epi16(dv, inf));
  // |du - dv| exactly: one of the two saturating subtractions is the true
  // difference, the other is 0.
  const __m256i base = _mm256_or_si256(_mm256_subs_epu16(du, dv),
                                       _mm256_subs_epu16(dv, du));
  *vbase = _mm256_max_epu16(*vbase, _mm256_andnot_si256(absent, base));
  // Saturating min-plus: sat(du + dv) = min(true sum, 0xFFFF), and min of
  // saturated sums = sat(min of true sums) — exact unless it lands on the
  // sentinel (the finalizer recomputes that rare case). Absent lanes are
  // forced to 0xFFFF so they never win the min.
  const __m256i sum = _mm256_or_si256(_mm256_adds_epu16(du, dv), absent);
  *vmin = _mm256_min_epu16(*vmin, sum);
  *vany = _mm256_or_si256(*vany, _mm256_andnot_si256(absent, inf));
}

__attribute__((target("avx2"))) inline LabelBound RowBoundFinalizeAvx2(
    const DistT* ru, const DistT* rv, uint32_t lanes, __m256i vbase,
    __m256i vmin, __m256i vany) {
  LabelBound bound;
  if (_mm256_testz_si256(vany, vany)) return bound;  // no shared lane
  bound.lower = HMaxEpu16(vbase);
  const uint16_t sat = HMinEpu16(vmin);
  if (sat != 0xFFFF) {
    bound.upper = sat;
    return bound;
  }
  // Every shared lane's saturated sum hit the sentinel: the true minimum
  // is somewhere in [0xFFFF, 2 * 0xFFFE]. Recompute it exactly (rare —
  // it needs both distances near the 16-bit ceiling on every shared
  // landmark, which the differential harness's saturating families do
  // produce).
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT du = ru[i];
    const DistT dv = rv[i];
    if (du == kInfDist || dv == kInfDist) continue;
    const uint32_t sum = static_cast<uint32_t>(du) + dv;
    if (sum < bound.upper) bound.upper = sum;
  }
  return bound;
}

__attribute__((target("avx2"))) LabelBound RowBoundAvx2(const DistT* ru,
                                                        const DistT* rv,
                                                        uint32_t lanes) {
  __m256i vbase = _mm256_setzero_si256();
  __m256i vmin = _mm256_set1_epi16(-1);
  __m256i vany = _mm256_setzero_si256();
  for (uint32_t i = 0; i < lanes; i += 16) {
    RowBoundBlockAvx2(ru, rv, i, &vbase, &vmin, &vany);
  }
  return RowBoundFinalizeAvx2(ru, rv, lanes, vbase, vmin, vany);
}

__attribute__((target("avx2"))) void RowCandidatesAvx2(
    const DistT* row, uint32_t lanes, std::vector<SketchAnchor>* out) {
  const __m256i inf = _mm256_set1_epi16(-1);
  for (uint32_t i = 0; i < lanes; i += 16) {
    const __m256i d =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(row + i));
    const uint32_t absent =
        static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi16(d, inf)));
    uint32_t present = CompactLaneMask(~absent);
    while (present != 0) {
      const uint32_t j = static_cast<uint32_t>(std::countr_zero(present));
      present &= present - 1;
      out->push_back(SketchAnchor{i + j, row[i + j]});
    }
  }
}

const ScanOps kAvx2Ops = {ScanKernel::kAvx2, "avx2", RowBoundAvx2,
                          RowCandidatesAvx2};

#endif  // QBS_HAVE_AVX2_KERNELS

std::atomic<const ScanOps*> g_active_ops{nullptr};

const ScanOps* ResolveActiveOps() {
  const ScanKernel kernel =
      ResolveScanKernel(CpuHasAvx2(), std::getenv("QBS_FORCE_SCALAR_SCAN"));
  return &ScanOpsFor(kernel);
}

}  // namespace

const ScanOps& ScalarScanOps() { return kScalarOps; }

const ScanOps& ScanOpsFor(ScanKernel kernel) {
#if QBS_HAVE_AVX2_KERNELS
  if (kernel == ScanKernel::kAvx2 && CpuHasAvx2()) return kAvx2Ops;
#endif
  (void)kernel;
  return kScalarOps;
}

std::vector<ScanKernel> SupportedScanKernels() {
  std::vector<ScanKernel> kernels = {ScanKernel::kScalar};
#if QBS_HAVE_AVX2_KERNELS
  if (CpuHasAvx2()) kernels.push_back(ScanKernel::kAvx2);
#endif
  return kernels;
}

bool CpuHasAvx2() {
#if QBS_HAVE_AVX2_KERNELS
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

ScanKernel ResolveScanKernel(bool cpu_has_avx2,
                             const char* force_scalar_env) {
  const bool forced =
      force_scalar_env != nullptr && force_scalar_env[0] != '\0' &&
      !(force_scalar_env[0] == '0' && force_scalar_env[1] == '\0');
  if (forced || !cpu_has_avx2 || QBS_HAVE_AVX2_KERNELS == 0) {
    return ScanKernel::kScalar;
  }
  return ScanKernel::kAvx2;
}

const ScanOps& ActiveScanOps() {
  const ScanOps* ops = g_active_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // A racing duplicate resolve is benign: both threads store the same
    // pointer (the resolution is a pure function of process state).
    ops = ResolveActiveOps();
    g_active_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

ScanKernel ActiveScanKernel() { return ActiveScanOps().kernel; }

void SetActiveScanKernel(ScanKernel kernel) {
  g_active_ops.store(&ScanOpsFor(kernel), std::memory_order_release);
}

LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, const ScanOps& ops) {
  QBS_DCHECK(!labeling.IsLandmark(u) && !labeling.IsLandmark(v));
  return ops.row_bound(labeling.Row(u), labeling.Row(v),
                       labeling.row_stride());
}

LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v) {
  return ComputeLabelBoundRows(labeling, u, v, ActiveScanOps());
}

}  // namespace qbs
