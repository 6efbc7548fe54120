// libFuzzer target for the two file loaders: LoadLabelingScheme (QBSIDX04
// index files) and LoadGraphCache (QBSGRF04 graph caches). Both parse
// untrusted bytes from disk, so the properties fuzzed here are the ones a
// server restart relies on:
//
//   * no crash / OOB / UB / unbounded allocation on any file, however torn
//     up (ASan/UBSan catch violations; a corrupt count must fail a read,
//     not size an allocation);
//   * a graph cache the loader accepts saves back to the very same bytes
//     (the layout has exactly one encoding of each graph).
//
// Each input is written to a temp file and handed to both loaders, twice:
// as it is, and with its last 8 bytes replaced by the Checksum64 of the
// rest. Both formats end with that checksum, so the second copy carries a
// mutation past it to the checks behind it (the CSR's, the labels')
// instead of letting it die there. Built two ways, like protocol_fuzz.cc:
// with QBS_FUZZ_LIBFUZZER under clang -fsanitize=fuzzer for real fuzzing,
// and with a standalone main() that replays the checked-in corpus under
// tests/fuzz/file_corpus/ as a plain ctest in every build. That corpus is
// written by scripts/file_fixtures.py, which has its own implementation of
// both layouts and of Checksum64; the driver fails if either unmodified
// fixture in it is rejected, so the corpus cannot fall behind the formats.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/serialization.h"
#include "graph/dataset_io.h"
#include "util/binary_io.h"

namespace {

using namespace qbs;

std::string ScratchPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("qbs_file_fuzz_" + std::to_string(getpid()) + name))
      .string();
}

void WriteFile(const std::string& path, const uint8_t* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// Which loaders accepted an input.
struct Accepted {
  bool index = false;
  bool cache = false;
};

Accepted LoadBoth(const std::vector<uint8_t>& bytes) {
  static const std::string input = ScratchPath(".in");
  static const std::string resaved = ScratchPath(".out");
  WriteFile(input, bytes.data(), bytes.size());

  Accepted accepted;
  accepted.index = LoadLabelingScheme(input).has_value();

  DatasetCacheInfo info;
  if (auto g = LoadGraphCache(input, &info)) {
    accepted.cache = true;
    if (!SaveGraphCache(*g, info, resaved) || ReadFile(resaved) != bytes) {
      __builtin_trap();
    }
  }
  return accepted;
}

// Returns what the loaders made of the input as it is.
Accepted RunOneInput(const uint8_t* data, size_t size) {
  // Every rejection prints a line; the fuzzer runs millions of them.
  std::cerr.rdbuf(nullptr);
  const std::vector<uint8_t> bytes(data, data + size);
  const Accepted accepted = LoadBoth(bytes);
  if (size < sizeof(uint64_t)) return accepted;
  std::vector<uint8_t> resummed = bytes;
  const size_t body = size - sizeof(uint64_t);
  Checksum64 sum;
  sum.Update(resummed.data(), body);
  const uint64_t digest = sum.Digest();
  std::memcpy(resummed.data() + body, &digest, sizeof(digest));
  if (resummed != bytes) LoadBoth(resummed);
  return accepted;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOneInput(data, size);
  return 0;
}

#ifndef QBS_FUZZ_LIBFUZZER
// Standalone corpus driver: replays every file passed on the command line
// (the checked-in corpus under tests/fuzz/file_corpus/) through the target.
// The two unmodified fixtures must load as they are: a corpus left behind
// by a format change would otherwise die at the magic check, seed by seed,
// and still pass.
#include <cstdio>

int main(int argc, char** argv) {
  int ran = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::ifstream(argv[i])) {
      std::fprintf(stderr, "file_fuzz: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<uint8_t> bytes = ReadFile(argv[i]);
    const Accepted accepted = RunOneInput(bytes.data(), bytes.size());
    const std::string name = std::filesystem::path(argv[i]).filename();
    if ((name == "index_full.qbsidx" && !accepted.index) ||
        (name == "cache_full.qbsgrf" && !accepted.cache)) {
      std::fprintf(stderr,
                   "file_fuzz: %s is rejected as it is; rewrite the corpus "
                   "with scripts/file_fixtures.py\n",
                   argv[i]);
      return 1;
    }
    ++ran;
  }
  std::filesystem::remove(ScratchPath(".in"));
  std::filesystem::remove(ScratchPath(".out"));
  std::printf("file_fuzz: replayed %d corpus inputs cleanly\n", ran);
  return 0;
}
#endif
