// libFuzzer target for the QBSP wire surface: the incremental FrameReader
// and every payload codec. The decoders parse untrusted bytes, so the
// properties fuzzed here are exactly the ones the server relies on:
//
//   * no crash / OOB / UB on any byte stream, however torn up (ASan/UBSan
//     catch violations);
//   * bounded buffering (the reader's payload cap holds);
//   * decode → encode reproduces every accepted payload byte for byte.
//     The query-request, query-response, busy, update-request and
//     update-response codecs each have exactly one layout and reject
//     nonzero padding, reserved words and a cache-hit byte other than
//     0 or 1, so an accepted payload has only one encoding. For responses
//     this covers the edge block the codec moves with one memcpy each way.
//     The error codec is only decoded: its message is free text.
//
// Built two ways: with QBS_FUZZ_LIBFUZZER under clang -fsanitize=fuzzer
// for real fuzzing, and with a standalone main() that replays the
// checked-in corpus — that driver runs as a plain ctest in every build, so
// corpus regressions are caught even where libFuzzer isn't available.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/query_api.h"
#include "server/protocol.h"

namespace {

using namespace qbs;
using namespace qbs::server;

bool SameBytes(std::span<const uint8_t> a, const std::vector<uint8_t>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void ExerciseCodecs(std::span<const uint8_t> payload) {
  QueryRequest request;
  if (DecodeQueryRequest(payload, &request)) {
    // Round-trip property: an accepted request re-encodes to the very
    // bytes it was decoded from.
    if (!SameBytes(payload, EncodeQueryRequest(request))) __builtin_trap();
  }
  QueryResponse response;
  if (DecodeQueryResponse(payload, &response)) {
    if (!SameBytes(payload, EncodeQueryResponse(response))) __builtin_trap();
  }
  uint32_t retry = 0;
  uint32_t depth = 0;
  if (DecodeBusy(payload, &retry, &depth)) {
    if (!SameBytes(payload, EncodeBusy(retry, depth))) __builtin_trap();
  }
  GraphDelta delta;
  if (DecodeUpdateRequest(payload, &delta)) {
    if (!SameBytes(payload, EncodeUpdateRequest(delta))) __builtin_trap();
  }
  UpdateStats stats;
  if (DecodeUpdateResponse(payload, &stats)) {
    if (!SameBytes(payload, EncodeUpdateResponse(stats))) __builtin_trap();
  }
  ErrorCode code;
  std::string message;
  (void)DecodeError(payload, &code, &message);
}

void RunOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> input(data, size);

  // The whole input as a raw payload for every codec.
  ExerciseCodecs(input);

  // The input as a frame stream, fed in ragged growing chunks so header/
  // payload boundaries land everywhere; every decoded frame's payload goes
  // through the codecs again.
  FrameReader reader(/*max_payload=*/1u << 16);
  size_t off = 0;
  size_t chunk = 1;
  while (off < input.size()) {
    const size_t len = std::min(chunk, input.size() - off);
    reader.Feed(input.subspan(off, len));
    off += len;
    chunk = chunk * 2 + 1;
    Frame frame;
    while (reader.Next(&frame) == FrameReader::Status::kFrame) {
      ExerciseCodecs(frame.payload);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOneInput(data, size);
  return 0;
}

#ifndef QBS_FUZZ_LIBFUZZER
// Standalone corpus driver: replays every file passed on the command line
// (the checked-in corpus under tests/fuzz/corpus/) through the target.
#include <cstdio>
#include <fstream>
#include <iterator>

int main(int argc, char** argv) {
  int ran = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "protocol_fuzz: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in), {});
    RunOneInput(bytes.data(), bytes.size());
    ++ran;
  }
  std::printf("protocol_fuzz: replayed %d corpus inputs cleanly\n", ran);
  return 0;
}
#endif
