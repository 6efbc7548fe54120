// Differential-testing harness for the SIMD label-scan kernels
// (core/label_scan.h): every compiled kernel must produce BIT-IDENTICAL
// results to the scalar reference — the raw row bound, candidate lists,
// and the final LabelBound — on generated label-row families chosen to hit the kernels' edge lanes: all-absent
// rows, single-present lanes, strides straddling the 16-lane block
// boundary (|R| in {1, 7, 8, 31, 32, 33, 64, 257}), and saturating
// distances near the kInfDist sentinel. Also covers the runtime dispatch
// (CPUID x QBS_FORCE_SCALAR_SCAN) and the row padding/alignment invariant
// through build and serialization.

#include <algorithm>
#include <cstdint>
#include <cstdio>
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
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

using testing::ScopedScanKernel;

// Label-row families the generator draws from. Values stay in
// [1, 0xFFFE]: a stored label of a non-landmark vertex is never 0 (that
// would make the vertex the landmark itself).
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
}

// A labelling whose first k vertices are the landmarks and whose
// remaining `extra` vertices carry synthetic rows (filled by the caller).
PathLabeling MakeSyntheticLabeling(uint32_t k, VertexId extra) {
  std::vector<VertexId> landmarks(k);
  for (uint32_t i = 0; i < k; ++i) landmarks[i] = i;
  return PathLabeling(k + extra, std::move(landmarks));
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

LabelBound ReferenceBound(const PathLabeling& labeling, VertexId u,
                          VertexId v) {
  return ComputeLabelBoundFromCandidates(ReferenceCandidates(labeling, u),
                                         ReferenceCandidates(labeling, v));
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
    EXPECT_NE(ScanOpsFor(kernel).row_candidates, nullptr);
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
// merge reference for every kernel and family pair.
TEST_P(SimdScanDifferential, RowBoundMatchesReferenceEverywhere) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  for (const RowFamily fu : kFamilies) {
    for (const RowFamily fv : kFamilies) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed * 7919 + k * 31 +
                            static_cast<uint64_t>(fu) * 131 +
                            static_cast<uint64_t>(fv) * 1031);
        PathLabeling labeling = MakeSyntheticLabeling(k, 2);
        const VertexId u = k;
        const VertexId v = k + 1;
        FillRow(&labeling, u, fu, &rng);
        FillRow(&labeling, v, fv, &rng);
        const LabelBound want = ReferenceBound(labeling, u, v);
        for (const ScanKernel kernel : kernels) {
          const LabelBound got =
              ComputeLabelBoundRows(labeling, u, v, ScanOpsFor(kernel));
          ASSERT_EQ(got.lower, want.lower)
              << KernelName(kernel) << " k=" << k << " seed=" << seed
              << " fu=" << static_cast<int>(fu)
              << " fv=" << static_cast<int>(fv);
          ASSERT_EQ(got.upper, want.upper)
              << KernelName(kernel) << " k=" << k << " seed=" << seed
              << " fu=" << static_cast<int>(fu)
              << " fv=" << static_cast<int>(fv);
        }
      }
    }
  }
}

// One level deeper than the wrapper: the raw row_bound output of every
// kernel must match the scalar kernel bit for bit (including the exact
// 32-bit upper bound the vector kernel recomputes on saturation).
TEST_P(SimdScanDifferential, RawAggregatesBitIdentical) {
  const uint32_t k = GetParam();
  const auto kernels = SupportedScanKernels();
  for (const RowFamily fu : kFamilies) {
    for (const RowFamily fv : kFamilies) {
      std::mt19937_64 rng(k * 97 + static_cast<uint64_t>(fu) * 11 +
                          static_cast<uint64_t>(fv));
      PathLabeling labeling = MakeSyntheticLabeling(k, 2);
      const VertexId u = k;
      const VertexId v = k + 1;
      FillRow(&labeling, u, fu, &rng);
      FillRow(&labeling, v, fv, &rng);
      const uint32_t lanes = labeling.row_stride();
      const LabelBound want =
          ScalarScanOps().row_bound(labeling.Row(u), labeling.Row(v), lanes);
      for (const ScanKernel kernel : kernels) {
        const LabelBound got = ScanOpsFor(kernel).row_bound(
            labeling.Row(u), labeling.Row(v), lanes);
        ASSERT_EQ(got.lower, want.lower) << KernelName(kernel) << " k=" << k;
        ASSERT_EQ(got.upper, want.upper) << KernelName(kernel) << " k=" << k;
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
      PathLabeling labeling = MakeSyntheticLabeling(k, 1);
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

INSTANTIATE_TEST_SUITE_P(Strides, SimdScanDifferential,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 33u, 64u,
                                           257u));

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
