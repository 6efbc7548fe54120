// Differential-testing harness for the SIMD label-scan kernels
// (core/label_scan.h): every compiled kernel must produce BIT-IDENTICAL
// results to the scalar reference — aggregates, gate words, candidate
// lists, lower-bound witnesses, and the final LabelBound — on generated
// label-row families chosen to hit the kernels' edge lanes: all-absent
// rows, single-present lanes, strides straddling the 16-lane block
// boundary (|R| in {1, 7, 8, 31, 32, 33, 64, 257}), and saturating
// distances near the kInfDist sentinel. Also covers the runtime dispatch
// (CPUID x QBS_FORCE_SCALAR_SCAN), the batched kernel, and the row
// padding/alignment invariant through build and serialization.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/label_scan.h"
#include "core/labeling.h"
#include "core/landmark_selection.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "core/sketch.h"
#include "gen/generators.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

// Restores the process-wide active kernel on scope exit, so tests that
// flip it can never leak the override into later tests.
class ScopedScanKernel {
 public:
  explicit ScopedScanKernel(ScanKernel kernel)
      : saved_(ActiveScanKernel()) {
    SetActiveScanKernel(kernel);
  }
  ~ScopedScanKernel() { SetActiveScanKernel(saved_); }
  ScopedScanKernel(const ScopedScanKernel&) = delete;
  ScopedScanKernel& operator=(const ScopedScanKernel&) = delete;

 private:
  ScanKernel saved_;
};

// Label-row families the generator draws from. Values stay in
// [1, 0xFFFE]: a stored label of a non-landmark vertex is never 0 (that
// would make the vertex the landmark itself), and the scalar reference's
// unchecked -2 refinement assumes sums >= 2.
enum class RowFamily {
  kAllUnreachable,   // every lane absent
  kSingleLandmark,   // exactly one present lane
  kSparse,           // ~30% present, small distances
  kDenseSmall,       // every lane present, small distances
  kRandomWide,       // ~70% present, values across the full range
  kSaturating,       // present values within 16 of the sentinel
};

constexpr RowFamily kFamilies[] = {
    RowFamily::kAllUnreachable, RowFamily::kSingleLandmark,
    RowFamily::kSparse,         RowFamily::kDenseSmall,
    RowFamily::kRandomWide,     RowFamily::kSaturating,
};

void FillRow(PathLabeling* labeling, VertexId t, RowFamily family,
             std::mt19937_64* rng) {
  const uint32_t k = labeling->num_landmarks();
  std::uniform_int_distribution<uint32_t> small(1, 40);
  std::uniform_int_distribution<uint32_t> wide(1, 0xFFFE);
  std::uniform_int_distribution<uint32_t> sat(0xFFF0, 0xFFFE);
  std::uniform_int_distribution<uint32_t> pct(0, 99);
  switch (family) {
    case RowFamily::kAllUnreachable:
      break;  // rows start all-kInfDist
    case RowFamily::kSingleLandmark:
      labeling->Set(t, static_cast<LandmarkIndex>((*rng)() % k),
                    static_cast<DistT>(small(*rng)));
      break;
    case RowFamily::kSparse:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 30) labeling->Set(t, i, static_cast<DistT>(small(*rng)));
      }
      break;
    case RowFamily::kDenseSmall:
      for (LandmarkIndex i = 0; i < k; ++i) {
        labeling->Set(t, i, static_cast<DistT>(small(*rng)));
      }
      break;
    case RowFamily::kRandomWide:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 70) labeling->Set(t, i, static_cast<DistT>(wide(*rng)));
      }
      break;
    case RowFamily::kSaturating:
      for (LandmarkIndex i = 0; i < k; ++i) {
        if (pct(*rng) < 80) labeling->Set(t, i, static_cast<DistT>(sat(*rng)));
      }
      break;
  }
  if (labeling->has_bp_masks()) {
    for (LandmarkIndex i = 0; i < k; ++i) {
      // ~25% bit density; occasionally all-zero (the "masks never built"
      // degradation the refinement must tolerate).
      BpMask m;
      if (pct(*rng) >= 10) {
        m.s_minus = (*rng)() & (*rng)();
        m.s_zero = (*rng)() & (*rng)();
      }
      labeling->SetBpMask(t, i, m);
    }
  }
}

// A labelling whose first k vertices are the landmarks and whose
// remaining `extra` vertices carry synthetic rows (filled by the caller).
PathLabeling MakeSyntheticLabeling(uint32_t k, VertexId extra,
                                   bool with_masks) {
  std::vector<VertexId> landmarks(k);
  for (uint32_t i = 0; i < k; ++i) landmarks[i] = i;
  PathLabeling labeling(k + extra, std::move(landmarks));
  if (with_masks) labeling.EnableBpMasks();
  return labeling;
}

// The pre-kernel scalar loops, kept alive here as independent references
// so a bug introduced into the scalar ScanOps cannot silently propagate
// into every comparison.
std::vector<SketchAnchor> ReferenceCandidates(const PathLabeling& labeling,
                                              VertexId t) {
  std::vector<SketchAnchor> out;
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    const DistT d = labeling.Get(t, i);
    if (d != kInfDist) out.push_back(SketchAnchor{i, d});
  }
  return out;
}

bool ReferenceLowerExceeds(const PathLabeling& labeling, VertexId x,
                           VertexId other, uint32_t threshold) {
  for (LandmarkIndex i = 0; i < labeling.num_landmarks(); ++i) {
    const DistT dx = labeling.Get(x, i);
    if (dx == kInfDist) continue;
    const DistT dother = labeling.Get(other, i);
    if (dother == kInfDist) continue;
    const uint32_t base = dx > dother ? dx - dother : dother - dx;
    if (base > threshold) return true;
    if (base == threshold &&
        BpMaskLowerLift(labeling.GetBpMask(x, i),
                        labeling.GetBpMask(other, i), dx, dother)) {
      return true;
    }
  }
  return false;
}

LabelBound ReferenceBound(const PathLabeling& labeling, VertexId u,
                          VertexId v, uint32_t refine_cutoff) {
  return ComputeLabelBoundFromCandidates(labeling, ReferenceCandidates(labeling, u),
                                         ReferenceCandidates(labeling, v), u, v,
                                         refine_cutoff);
}

std::string KernelName(ScanKernel kernel) {
  return ScanOpsFor(kernel).name;
}

// --- Dispatch. ---

TEST(SimdScanDispatch, ResolveHonorsCpuAndForceEnv) {
  // No AVX2 on the CPU: scalar, regardless of the env value.
  EXPECT_EQ(ResolveScanKernel(false, nullptr), ScanKernel::kScalar);
  EXPECT_EQ(ResolveScanKernel(false, "1"), ScanKernel::kScalar);
  EXPECT_EQ(ResolveScanKernel(false, "0"), ScanKernel::kScalar);
  // AVX2 present and not forced off: the vector kernel when compiled.
  const ScanKernel preferred = QBS_HAVE_AVX2_KERNELS != 0
                                   ? ScanKernel::kAvx2
                                   : ScanKernel::kScalar;
  EXPECT_EQ(ResolveScanKernel(true, nullptr), preferred);
  // Unset, empty, and literal "0" all mean "not forced".
  EXPECT_EQ(ResolveScanKernel(true, ""), preferred);
  EXPECT_EQ(ResolveScanKernel(true, "0"), preferred);
  // Any other non-empty value forces scalar.
  EXPECT_EQ(ResolveScanKernel(true, "1"), ScanKernel::kScalar);
  EXPECT_EQ(ResolveScanKernel(true, "true"), ScanKernel::kScalar);
  EXPECT_EQ(ResolveScanKernel(true, "00"), ScanKernel::kScalar);
}

TEST(SimdScanDispatch, ScanOpsForFallsBackToScalar) {
  EXPECT_EQ(ScanOpsFor(ScanKernel::kScalar).kernel, ScanKernel::kScalar);
  EXPECT_STREQ(ScanOpsFor(ScanKernel::kScalar).name, "scalar");
  // Requesting AVX2 yields AVX2 only where the CPU can run it; otherwise
  // the scalar table (never a crash, never a null).
  const ScanOps& avx = ScanOpsFor(ScanKernel::kAvx2);
  if (QBS_HAVE_AVX2_KERNELS != 0 && CpuHasAvx2()) {
    EXPECT_EQ(avx.kernel, ScanKernel::kAvx2);
  } else {
    EXPECT_EQ(avx.kernel, ScanKernel::kScalar);
  }
}

TEST(SimdScanDispatch, SupportedKernelsAlwaysIncludeScalar) {
  const auto kernels = SupportedScanKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), ScanKernel::kScalar);
  for (const ScanKernel kernel : kernels) {
    EXPECT_NE(ScanOpsFor(kernel).row_bound, nullptr);
    EXPECT_NE(ScanOpsFor(kernel).row_bound_batch, nullptr);
    EXPECT_NE(ScanOpsFor(kernel).row_candidates, nullptr);
    EXPECT_NE(ScanOpsFor(kernel).lower_exceeds, nullptr);
  }
}

TEST(SimdScanDispatch, SetActiveKernelOverridesAndRestores) {
  const ScanKernel before = ActiveScanKernel();
  {
    ScopedScanKernel force(ScanKernel::kScalar);
    EXPECT_EQ(ActiveScanKernel(), ScanKernel::kScalar);
    EXPECT_STREQ(ActiveScanOps().name, "scalar");
  }
  EXPECT_EQ(ActiveScanKernel(), before);
}

// The scalar fallback answers queries identically even when a faster
// kernel is available (this is what a non-AVX2 machine runs
// unconditionally). The kernel switch is process-wide, so the same index
// answers under both.
TEST(SimdScanDispatch, ScalarFallbackServesIdenticalQueries) {
  Graph g = BarabasiAlbert(300, 3, 7);
  QbsOptions options;
  options.num_landmarks = 10;
  const QbsIndex index = QbsIndex::Build(g, options);
  std::vector<QueryPair> pairs = SampleQueryPairs(g, 60, 7);
  std::vector<ShortestPathGraph> expected;
  expected.reserve(pairs.size());
  for (const auto& [u, v] : pairs) expected.push_back(index.Query({u, v}).spg);

  ScopedScanKernel force(ScanKernel::kScalar);
  ASSERT_EQ(ActiveScanKernel(), ScanKernel::kScalar);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(index.Query({pairs[i].u, pairs[i].v}).spg, expected[i])
        << "u=" << pairs[i].u << " v=" << pairs[i].v;
  }
}

// --- Differential bit-identity over generated row families. ---

class SimdScanDifferential : public ::testing::TestWithParam<uint32_t> {};

// The full wrapper path: ComputeLabelBoundRows must equal the candidate-
// merge reference for every kernel, family pair, cutoff, and mask state.
TEST_P(SimdScanDifferential, RowBoundMatchesReferenceEverywhere) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  const uint32_t cutoffs[] = {0, 2, 5, kUnreachable - 1, kUnreachable};
  for (const bool with_masks : {false, true}) {
    for (const RowFamily fu : kFamilies) {
      for (const RowFamily fv : kFamilies) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          std::mt19937_64 rng(seed * 7919 + k * 31 +
                              static_cast<uint64_t>(fu) * 131 +
                              static_cast<uint64_t>(fv) * 1031 + with_masks);
          PathLabeling labeling = MakeSyntheticLabeling(k, 2, with_masks);
          const VertexId u = k;
          const VertexId v = k + 1;
          FillRow(&labeling, u, fu, &rng);
          FillRow(&labeling, v, fv, &rng);
          for (const uint32_t cutoff : cutoffs) {
            const LabelBound want = ReferenceBound(labeling, u, v, cutoff);
            for (const ScanKernel kernel : kernels) {
              const LabelBound got = ComputeLabelBoundRows(
                  labeling, u, v, cutoff, ScanOpsFor(kernel));
              ASSERT_EQ(got.lower, want.lower)
                  << KernelName(kernel) << " k=" << k << " seed=" << seed
                  << " fu=" << static_cast<int>(fu)
                  << " fv=" << static_cast<int>(fv) << " cutoff=" << cutoff
                  << " masks=" << with_masks;
              ASSERT_EQ(got.upper, want.upper)
                  << KernelName(kernel) << " k=" << k << " seed=" << seed
                  << " fu=" << static_cast<int>(fu)
                  << " fv=" << static_cast<int>(fv) << " cutoff=" << cutoff
                  << " masks=" << with_masks;
            }
          }
        }
      }
    }
  }
}

// One level deeper than the wrapper: the raw kernel outputs — RowAgg
// fields AND the refine-gate bitmask — must match the scalar kernel bit
// for bit (the gate over-approximation is part of the contract: scalar
// and vector kernels share the same saturating formula).
TEST_P(SimdScanDifferential, RawAggregatesAndGateWordsBitIdentical) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  const uint16_t gate_limits[] = {0, 4, 41, 0xFFF0, 0xFFFF};
  for (const RowFamily fu : kFamilies) {
    for (const RowFamily fv : kFamilies) {
      std::mt19937_64 rng(k * 97 + static_cast<uint64_t>(fu) * 11 +
                          static_cast<uint64_t>(fv));
      PathLabeling labeling = MakeSyntheticLabeling(k, 2, /*with_masks=*/true);
      const VertexId u = k;
      const VertexId v = k + 1;
      FillRow(&labeling, u, fu, &rng);
      FillRow(&labeling, v, fv, &rng);
      const uint32_t lanes = labeling.row_stride();
      const size_t nwords = (lanes + 63) / 64;
      for (const uint16_t gate_limit : gate_limits) {
        RowAgg want_agg;
        std::vector<uint64_t> want_words(nwords, 0);
        ScalarScanOps().row_bound(labeling.Row(u), labeling.Row(v), lanes,
                                  gate_limit, &want_agg, want_words.data());
        for (const ScanKernel kernel : kernels) {
          RowAgg agg;
          std::vector<uint64_t> words(nwords, 0);
          ScanOpsFor(kernel).row_bound(labeling.Row(u), labeling.Row(v),
                                       lanes, gate_limit, &agg, words.data());
          ASSERT_EQ(agg.any, want_agg.any) << KernelName(kernel) << " k=" << k;
          ASSERT_EQ(agg.base_max, want_agg.base_max)
              << KernelName(kernel) << " k=" << k << " gate=" << gate_limit;
          ASSERT_EQ(agg.sum_min, want_agg.sum_min)
              << KernelName(kernel) << " k=" << k << " gate=" << gate_limit;
          ASSERT_EQ(words, want_words)
              << KernelName(kernel) << " k=" << k << " gate=" << gate_limit;
          // The no-gate variant (null gate_words) must agree on the aggs.
          RowAgg agg_nogate;
          ScanOpsFor(kernel).row_bound(labeling.Row(u), labeling.Row(v),
                                       lanes, gate_limit, &agg_nogate,
                                       nullptr);
          ASSERT_EQ(agg_nogate.base_max, want_agg.base_max);
          ASSERT_EQ(agg_nogate.sum_min, want_agg.sum_min);
          ASSERT_EQ(agg_nogate.any, want_agg.any);
        }
      }
    }
  }
}

TEST_P(SimdScanDifferential, CandidateExtractionBitIdentical) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  for (const RowFamily family : kFamilies) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      std::mt19937_64 rng(seed * 131 + k + static_cast<uint64_t>(family));
      PathLabeling labeling =
          MakeSyntheticLabeling(k, 1, /*with_masks=*/false);
      const VertexId t = k;
      FillRow(&labeling, t, family, &rng);
      const std::vector<SketchAnchor> want = ReferenceCandidates(labeling, t);
      for (const ScanKernel kernel : kernels) {
        std::vector<SketchAnchor> got;
        ScanOpsFor(kernel).row_candidates(labeling.Row(t),
                                          labeling.row_stride(), &got);
        ASSERT_EQ(got, want) << KernelName(kernel) << " k=" << k
                             << " family=" << static_cast<int>(family)
                             << " seed=" << seed;
      }
    }
  }
}

TEST_P(SimdScanDifferential, LowerExceedsWitnessesBitIdentical) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  for (const RowFamily fu : kFamilies) {
    for (const RowFamily fv : kFamilies) {
      std::mt19937_64 rng(k * 1301 + static_cast<uint64_t>(fu) * 17 +
                          static_cast<uint64_t>(fv) * 257);
      PathLabeling labeling = MakeSyntheticLabeling(k, 2, /*with_masks=*/true);
      const VertexId u = k;
      const VertexId v = k + 1;
      FillRow(&labeling, u, fu, &rng);
      FillRow(&labeling, v, fv, &rng);
      // Thresholds bracketing the true base maximum, plus the extremes
      // (0xFFFE is the largest base two finite labels can produce, and
      // anything above must return false through the clamp).
      RowAgg agg;
      ScalarScanOps().row_bound(labeling.Row(u), labeling.Row(v),
                                labeling.row_stride(), 0, &agg, nullptr);
      std::vector<uint32_t> thresholds = {0, 1, 2, 3, 0xFFFE, 0xFFFF,
                                          kUnreachable};
      if (agg.any) {
        if (agg.base_max > 0) thresholds.push_back(agg.base_max - 1);
        thresholds.push_back(agg.base_max);
        thresholds.push_back(agg.base_max + 1);
      }
      for (const uint32_t threshold : thresholds) {
        const bool want =
            threshold > 0xFFFEu
                ? false
                : ReferenceLowerExceeds(labeling, u, v, threshold);
        for (const ScanKernel kernel : kernels) {
          ASSERT_EQ(RowLowerBoundExceeds(labeling, u, v, threshold,
                                         ScanOpsFor(kernel)),
                    want)
              << KernelName(kernel) << " k=" << k
              << " threshold=" << threshold << " fu=" << static_cast<int>(fu)
              << " fv=" << static_cast<int>(fv);
        }
      }
    }
  }
}

// The batched sweep must reproduce the single-pair kernel exactly, pair
// by pair, for every kernel — including groups smaller than kScanBatch
// and pairs drawn from different families within one group.
TEST_P(SimdScanDifferential, BatchedSweepMatchesSinglePairScans) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  constexpr size_t kPairs = 11;  // one full group + a partial group
  for (const bool with_masks : {false, true}) {
    std::mt19937_64 rng(k * 733 + with_masks);
    PathLabeling labeling =
        MakeSyntheticLabeling(k, 2 * kPairs, with_masks);
    std::vector<VertexId> us(kPairs);
    std::vector<VertexId> vs(kPairs);
    constexpr size_t kNumFamilies = std::size(kFamilies);
    for (size_t p = 0; p < kPairs; ++p) {
      us[p] = static_cast<VertexId>(k + 2 * p);
      vs[p] = static_cast<VertexId>(k + 2 * p + 1);
      FillRow(&labeling, us[p], kFamilies[p % kNumFamilies], &rng);
      FillRow(&labeling, vs[p], kFamilies[(p + 3) % kNumFamilies], &rng);
    }
    for (const uint32_t cutoff : {uint32_t{2}, kUnreachable}) {
      for (const ScanKernel kernel : kernels) {
        std::vector<LabelBound> batch(kPairs);
        ComputeLabelBoundRowsBatch(labeling, us.data(), vs.data(), kPairs,
                                   cutoff, batch.data(), ScanOpsFor(kernel));
        for (size_t p = 0; p < kPairs; ++p) {
          const LabelBound single = ComputeLabelBoundRows(
              labeling, us[p], vs[p], cutoff, ScanOpsFor(kernel));
          ASSERT_EQ(batch[p].lower, single.lower)
              << KernelName(kernel) << " k=" << k << " pair=" << p
              << " cutoff=" << cutoff << " masks=" << with_masks;
          ASSERT_EQ(batch[p].upper, single.upper)
              << KernelName(kernel) << " k=" << k << " pair=" << p
              << " cutoff=" << cutoff << " masks=" << with_masks;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, SimdScanDifferential,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 33u, 64u,
                                           257u));

// --- Batched bounds over a real index (landmark special cases mixed in).

TEST(SimdScanBatch, ComputeLabelBoundsBatchMatchesScalarCalls) {
  Graph g = BarabasiAlbert(400, 3, 19);
  QbsOptions options;
  options.num_landmarks = 12;
  QbsIndex index = QbsIndex::Build(g, options);
  const PathLabeling& labeling = index.labeling();
  const MetaGraph& meta = index.meta_graph();

  std::vector<VertexId> us;
  std::vector<VertexId> vs;
  for (const auto& [u, v] : SampleQueryPairs(g, 100, 19)) {
    if (u == v) continue;
    us.push_back(u);
    vs.push_back(v);
  }
  // Landmark-pair and one-landmark cases must flow through the scalar
  // special cases inside the batch.
  const auto& landmarks = index.landmarks();
  us.push_back(landmarks[0]);
  vs.push_back(landmarks[1]);
  VertexId non_landmark = 0;
  while (labeling.IsLandmark(non_landmark)) ++non_landmark;
  us.push_back(landmarks[2]);
  vs.push_back(non_landmark);
  ASSERT_FALSE(labeling.IsLandmark(vs.back()));

  for (const uint32_t cutoff : {uint32_t{2}, kUnreachable}) {
    std::vector<LabelBound> batch(us.size());
    ComputeLabelBoundsBatch(labeling, meta, us.data(), vs.data(), us.size(),
                            cutoff, batch.data());
    for (size_t i = 0; i < us.size(); ++i) {
      const LabelBound want =
          ComputeLabelBound(labeling, meta, us[i], vs[i], cutoff);
      ASSERT_EQ(batch[i].lower, want.lower)
          << "u=" << us[i] << " v=" << vs[i] << " cutoff=" << cutoff;
      ASSERT_EQ(batch[i].upper, want.upper)
          << "u=" << us[i] << " v=" << vs[i] << " cutoff=" << cutoff;
    }
  }
}

// --- The row padding/alignment invariant, through build and load. ---

void CheckPaddingInvariant(const PathLabeling& labeling) {
  const uint32_t k = labeling.num_landmarks();
  const uint32_t stride = labeling.row_stride();
  EXPECT_EQ(stride, (k + kLabelRowLaneAlign - 1) / kLabelRowLaneAlign *
                        kLabelRowLaneAlign);
  for (VertexId v = 0; v < labeling.num_vertices(); ++v) {
    const DistT* row = labeling.Row(v);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(row) % 32, 0u) << "v=" << v;
    for (uint32_t i = k; i < stride; ++i) {
      ASSERT_EQ(row[i], kInfDist) << "padding lane " << i << " of v=" << v;
    }
  }
  // Padding must not leak into the paper-facing size(L).
  EXPECT_EQ(labeling.SizeBytes(),
            static_cast<uint64_t>(labeling.num_vertices()) * k * sizeof(DistT));
}

TEST(SimdScanPadding, RowsPaddedAndAlignedAfterBuildAndLoad) {
  Graph g = BarabasiAlbert(200, 3, 5);
  // k = 20 -> stride 32: a non-trivial pad of 12 lanes.
  const auto landmarks =
      SelectLandmarks(g, 20, LandmarkStrategy::kHighestDegree, 5);
  const auto scheme = BuildLabelingScheme(g, landmarks);
  CheckPaddingInvariant(scheme.labeling);

  // The serialization round trip rebuilds the padded, aligned matrix via
  // the constructor + Set path: the invariant must survive a load.
  const std::string path =
      ::testing::TempDir() + "/simd_scan_padding_roundtrip.qbs";
  ASSERT_TRUE(SaveLabelingScheme(scheme, path));
  auto loaded = LoadLabelingScheme(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  CheckPaddingInvariant(loaded->labeling);
  ASSERT_EQ(loaded->labeling.num_landmarks(), scheme.labeling.num_landmarks());
  for (VertexId v = 0; v < scheme.labeling.num_vertices(); ++v) {
    for (LandmarkIndex i = 0; i < scheme.labeling.num_landmarks(); ++i) {
      ASSERT_EQ(loaded->labeling.Get(v, i), scheme.labeling.Get(v, i));
    }
  }
}

}  // namespace
}  // namespace qbs
