#include "core/label_scan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

#include "util/check.h"

#if QBS_HAVE_AVX2_KERNELS
#include <immintrin.h>
#endif

namespace qbs {
namespace {

// Refinement subtracts at most 2, so candidates above refine_cutoff + 2
// cannot land at or below the cutoff; saturate so the default (cutoff =
// kUnreachable) refines every shared lane.
inline uint32_t MaxRefinable(uint32_t refine_cutoff) {
  return refine_cutoff > kUnreachable - 2 ? kUnreachable : refine_cutoff + 2;
}

// The 16-bit clamp the kernels gate with. Lanes whose SATURATED sum is
// <= this are candidates; FinishRowBound re-gates with the exact sum.
inline uint16_t GateLimit16(uint32_t max_refinable) {
  return static_cast<uint16_t>(std::min<uint32_t>(max_refinable, 0xFFFFu));
}

inline uint32_t GateWordCount(uint32_t lanes) { return (lanes + 63) / 64; }

// Strides up to this many lanes (|R| <= 512) keep the gate bitmask on the
// stack; larger ones (differential-harness territory) fall back to a heap
// buffer.
constexpr uint32_t kMaxStackWords = 8;

// --- Scalar reference kernels. ---

void RowBoundScalar(const DistT* ru, const DistT* rv, uint32_t lanes,
                    uint16_t gate_limit, RowAgg* agg, uint64_t* gate_words) {
  uint32_t base_max = 0;
  uint32_t sum_min = kUnreachable;
  bool any = false;
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT du = ru[i];
    const DistT dv = rv[i];
    if (du == kInfDist || dv == kInfDist) continue;
    any = true;
    const uint32_t base = du > dv ? du - dv : dv - du;
    if (base > base_max) base_max = base;
    const uint32_t sum = static_cast<uint32_t>(du) + dv;
    if (sum < sum_min) sum_min = sum;
    // Same saturating over-approximation as the vector kernels, so the
    // gate words are bit-identical across kernels (test-asserted), not
    // just the post-pass outputs.
    if (gate_words != nullptr && std::min<uint32_t>(sum, 0xFFFFu) <= gate_limit) {
      gate_words[i >> 6] |= 1ull << (i & 63);
    }
  }
  agg->any = any;
  agg->base_max = base_max;
  agg->sum_min = any ? sum_min : kUnreachable;
}

void RowCandidatesScalar(const DistT* row, uint32_t lanes,
                         std::vector<SketchAnchor>* out) {
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT d = row[i];
    if (d != kInfDist) out->push_back(SketchAnchor{i, d});
  }
}

bool LowerExceedsScalar(const DistT* rx, const DistT* ro, const BpMask* mx,
                        const BpMask* mo, uint32_t lanes, uint16_t threshold) {
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT dx = rx[i];
    if (dx == kInfDist) continue;
    const DistT dother = ro[i];
    if (dother == kInfDist) continue;
    const uint32_t base = dx > dother ? dx - dother : dother - dx;
    if (base > threshold) return true;
    if (base == threshold && BpMaskLowerLift(mx[i], mo[i], dx, dother)) {
      return true;
    }
  }
  return false;
}

const ScanOps kScalarOps = {ScanKernel::kScalar, "scalar", RowBoundScalar,
                            RowCandidatesScalar, LowerExceedsScalar};

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
    const DistT* ru, const DistT* rv, uint32_t i, __m256i vgate,
    __m256i* vbase, __m256i* vmin, __m256i* vany, uint64_t* gate_words) {
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
  if (gate_words != nullptr) {
    // sum <= gate via min(sum, gate) == sum (no unsigned 16-bit compare
    // in AVX2). Absent lanes sit at 0xFFFF and would pass when gate ==
    // 0xFFFF, so mask them off explicitly.
    const __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(sum, vgate), sum);
    const uint32_t bits = CompactLaneMask(static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_andnot_si256(absent, le))));
    gate_words[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
}

__attribute__((target("avx2"))) inline void RowBoundFinalizeAvx2(
    const DistT* ru, const DistT* rv, uint32_t lanes, __m256i vbase,
    __m256i vmin, __m256i vany, RowAgg* agg) {
  const bool any = !_mm256_testz_si256(vany, vany);
  agg->any = any;
  if (!any) {
    agg->base_max = 0;
    agg->sum_min = kUnreachable;
    return;
  }
  agg->base_max = HMaxEpu16(vbase);
  const uint16_t sat = HMinEpu16(vmin);
  if (sat != 0xFFFF) {
    agg->sum_min = sat;
    return;
  }
  // Every shared lane's saturated sum hit the sentinel: the true minimum
  // is somewhere in [0xFFFF, 2 * 0xFFFE]. Recompute it exactly (rare —
  // it needs both distances near the 16-bit ceiling on every shared
  // landmark, which the differential harness's saturating families do
  // produce).
  uint32_t sum_min = kUnreachable;
  for (uint32_t i = 0; i < lanes; ++i) {
    const DistT du = ru[i];
    const DistT dv = rv[i];
    if (du == kInfDist || dv == kInfDist) continue;
    const uint32_t sum = static_cast<uint32_t>(du) + dv;
    if (sum < sum_min) sum_min = sum;
  }
  agg->sum_min = sum_min;
}

__attribute__((target("avx2"))) void RowBoundAvx2(const DistT* ru,
                                                  const DistT* rv,
                                                  uint32_t lanes,
                                                  uint16_t gate_limit,
                                                  RowAgg* agg,
                                                  uint64_t* gate_words) {
  const __m256i vgate = _mm256_set1_epi16(static_cast<short>(gate_limit));
  __m256i vbase = _mm256_setzero_si256();
  __m256i vmin = _mm256_set1_epi16(-1);
  __m256i vany = _mm256_setzero_si256();
  for (uint32_t i = 0; i < lanes; i += 16) {
    RowBoundBlockAvx2(ru, rv, i, vgate, &vbase, &vmin, &vany, gate_words);
  }
  RowBoundFinalizeAvx2(ru, rv, lanes, vbase, vmin, vany, agg);
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

__attribute__((target("avx2"))) bool LowerExceedsAvx2(
    const DistT* rx, const DistT* ro, const BpMask* mx, const BpMask* mo,
    uint32_t lanes, uint16_t threshold) {
  const __m256i inf = _mm256_set1_epi16(-1);
  const __m256i vt = _mm256_set1_epi16(static_cast<short>(threshold));
  for (uint32_t i = 0; i < lanes; i += 16) {
    const __m256i dx =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(rx + i));
    const __m256i dother =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(ro + i));
    const __m256i absent = _mm256_or_si256(_mm256_cmpeq_epi16(dx, inf),
                                           _mm256_cmpeq_epi16(dother, inf));
    const __m256i base = _mm256_or_si256(_mm256_subs_epu16(dx, dother),
                                         _mm256_subs_epu16(dother, dx));
    // base >= threshold via max(base, t) == base; shared lanes only.
    const __m256i ge = _mm256_andnot_si256(
        absent, _mm256_cmpeq_epi16(_mm256_max_epu16(base, vt), base));
    if (_mm256_testz_si256(ge, ge)) continue;
    const uint32_t ge_bits =
        CompactLaneMask(static_cast<uint32_t>(_mm256_movemask_epi8(ge)));
    const uint32_t eq_bits = CompactLaneMask(static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(base, vt))));
    if ((ge_bits & ~eq_bits) != 0) return true;  // some base > threshold
    // Lanes sitting exactly at the threshold: only these read their mask
    // cache lines, matching the scalar kernel's access pattern.
    uint32_t witness = ge_bits & eq_bits;
    while (witness != 0) {
      const uint32_t lane =
          i + static_cast<uint32_t>(std::countr_zero(witness));
      witness &= witness - 1;
      if (BpMaskLowerLift(mx[lane], mo[lane], rx[lane], ro[lane])) {
        return true;
      }
    }
  }
  return false;
}

const ScanOps kAvx2Ops = {ScanKernel::kAvx2, "avx2", RowBoundAvx2,
                          RowCandidatesAvx2, LowerExceedsAvx2};

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

LabelBound FinishRowBound(const RowAgg& agg, const uint64_t* gate_words,
                          uint32_t lanes, const DistT* ru, const DistT* rv,
                          const BpMask* mu, const BpMask* mv,
                          uint32_t max_refinable) {
  LabelBound bound;
  if (!agg.any) return bound;  // no shared landmark: {0, kUnreachable}
  bound.lower = agg.base_max;
  bound.upper = agg.sum_min;
  if (gate_words == nullptr || mu == nullptr || mv == nullptr) return bound;
  // The in-loop scalar lift is order-independent once decomposed: the
  // final lower bound is base_max + 1 iff some lane passing the refine
  // gate sits exactly at base_max and carries a BpMaskLowerLift witness
  // (a lift from any smaller base is always overtaken by base_max, and a
  // base_max lane's `base >= lower` precondition holds whenever such a
  // lane is reached). That is what makes a vector pass + this post-pass
  // bit-identical to the sequential merge.
  bool lifted = false;
  const uint32_t words = GateWordCount(lanes);
  for (uint32_t w = 0; w < words; ++w) {
    uint64_t bits = gate_words[w];
    while (bits != 0) {
      const uint32_t i =
          w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const DistT du = ru[i];
      const DistT dv = rv[i];
      uint32_t cand = static_cast<uint32_t>(du) + dv;
      // Exact re-gate: the kernels' saturating compare may admit lanes
      // whose true sum exceeds the limit (only possible when the limit
      // itself clamps at 0xFFFF).
      if (cand > max_refinable) continue;
      const BpMask& a = mu[i];
      const BpMask& b = mv[i];
      if ((a.s_minus & b.s_minus) != 0) {
        cand -= 2;
      } else if ((a.s_minus & b.s_zero) != 0 || (a.s_zero & b.s_minus) != 0) {
        cand -= 1;
      }
      if (cand < bound.upper) bound.upper = cand;
      if (!lifted) {
        const uint32_t base = du > dv ? du - dv : dv - du;
        if (base == agg.base_max && BpMaskLowerLift(a, b, du, dv)) {
          lifted = true;
        }
      }
    }
  }
  if (lifted) bound.lower = agg.base_max + 1;
  return bound;
}

LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, uint32_t refine_cutoff,
                                 const ScanOps& ops) {
  QBS_DCHECK(!labeling.IsLandmark(u) && !labeling.IsLandmark(v));
  const uint32_t lanes = labeling.row_stride();
  const DistT* ru = labeling.Row(u);
  const DistT* rv = labeling.Row(v);
  const bool bp = labeling.has_bp_masks();
  const uint32_t max_refinable = MaxRefinable(refine_cutoff);
  uint64_t stack_words[kMaxStackWords] = {};
  std::vector<uint64_t> heap_words;
  uint64_t* words = nullptr;
  if (bp && lanes > 0) {
    const uint32_t nwords = GateWordCount(lanes);
    if (nwords <= kMaxStackWords) {
      words = stack_words;
    } else {
      heap_words.assign(nwords, 0);
      words = heap_words.data();
    }
  }
  RowAgg agg;
  ops.row_bound(ru, rv, lanes, GateLimit16(max_refinable), &agg, words);
  return FinishRowBound(agg, words, lanes, ru, rv,
                        bp ? labeling.BpRow(u) : nullptr,
                        bp ? labeling.BpRow(v) : nullptr, max_refinable);
}

LabelBound ComputeLabelBoundRows(const PathLabeling& labeling, VertexId u,
                                 VertexId v, uint32_t refine_cutoff) {
  return ComputeLabelBoundRows(labeling, u, v, refine_cutoff,
                               ActiveScanOps());
}

bool RowLowerBoundExceeds(const PathLabeling& labeling, VertexId x,
                          VertexId other, uint32_t threshold,
                          const ScanOps& ops) {
  QBS_DCHECK(labeling.has_bp_masks());
  // base = |dx - dother| <= 0xFFFE always (both distances < kInfDist), so
  // larger thresholds can neither be exceeded nor matched.
  if (threshold > 0xFFFEu) return false;
  return ops.lower_exceeds(labeling.Row(x), labeling.Row(other),
                           labeling.BpRow(x), labeling.BpRow(other),
                           labeling.row_stride(),
                           static_cast<uint16_t>(threshold));
}

}  // namespace qbs
