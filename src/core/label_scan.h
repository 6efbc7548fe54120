// The label-scan name shim. The per-query label scan is one scalar loop
// in core/sketch.cc (ComputeLabelBound, ComputeAnchorCandidatesInto); this
// header only names it.

#ifndef QBS_CORE_LABEL_SCAN_H_
#define QBS_CORE_LABEL_SCAN_H_

namespace qbs {

// Kept because bench_e2e (frozen by BENCHMARK.json) reads it.
struct ScanOps {
  const char* name;
};

inline const ScanOps& ActiveScanOps() {
  static constexpr ScanOps kScalar{"scalar"};
  return kScalar;
}

}  // namespace qbs

#endif  // QBS_CORE_LABEL_SCAN_H_
