// libFuzzer target for the edit-script surface: ParseEditLine, the parser
// behind `qbs update --file`, and the net-change evaluation every parsed
// script meets in QbsIndex::ApplyUpdates. An edit script is untrusted text
// (a file, or stdin), so the properties fuzzed here are:
//
//   * no crash / OOB / UB on any line, however malformed (ASan/UBSan catch
//     violations);
//   * a line appends at most one edit, and a rejected line appends none
//     and says why;
//   * an accepted edit printed back as "i u v" / "d u v" parses to the
//     same edit;
//   * ComputeNetChanges counts out-of-range ids and self-loops as invalid
//     instead of trusting them, and ApplyNetChanges splices what is left
//     (its CSR checks abort on a bad result).
//
// Each input is split into lines like `qbs update --file` reads them. Built
// two ways, like protocol_fuzz.cc: with QBS_FUZZ_LIBFUZZER under clang
// -fsanitize=fuzzer for real fuzzing, and with a standalone main() that
// replays the checked-in corpus under tests/fuzz/edit_corpus/ as a plain
// ctest in every build.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_delta.h"

namespace {

using namespace qbs;

void RunOneInput(const uint8_t* data, size_t size) {
  // A fixed 16-vertex base: small ids hit real edges and non-edges, and
  // everything from 16 up is out of range.
  static const Graph base = CycleGraph(16);
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  GraphDelta delta;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;

    const size_t before = delta.size();
    std::string error;
    const bool ok = ParseEditLine(line, &delta, &error);
    if (!ok && (error.empty() || delta.size() != before)) __builtin_trap();
    if (ok && delta.size() > before + 1) __builtin_trap();
    if (!ok || delta.size() == before) continue;

    const EdgeUpdate edit = delta.updates().back();
    const std::string canonical =
        std::string(edit.op == EdgeOp::kInsert ? "i " : "d ") +
        std::to_string(edit.u) + " " + std::to_string(edit.v);
    GraphDelta reparsed;
    if (!ParseEditLine(canonical, &reparsed, &error) ||
        reparsed.updates() != std::vector<EdgeUpdate>{edit}) {
      __builtin_trap();
    }
  }

  const NetChanges net = ComputeNetChanges(base, delta);
  uint64_t invalid = 0;
  for (const EdgeUpdate& edit : delta.updates()) {
    invalid += edit.u == edit.v || edit.u >= base.NumVertices() ||
               edit.v >= base.NumVertices();
  }
  if (net.invalid != invalid) __builtin_trap();
  (void)ApplyNetChanges(base, net);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOneInput(data, size);
  return 0;
}

#ifndef QBS_FUZZ_LIBFUZZER
// Standalone corpus driver: replays every file passed on the command line
// (the checked-in corpus under tests/fuzz/edit_corpus/) through the target.
#include <cstdio>
#include <fstream>
#include <iterator>

int main(int argc, char** argv) {
  int ran = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "edit_fuzz: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in), {});
    RunOneInput(bytes.data(), bytes.size());
    ++ran;
  }
  std::printf("edit_fuzz: replayed %d corpus inputs cleanly\n", ran);
  return 0;
}
#endif
