// Wire-protocol framing and codec tests: the FrameReader parses untrusted
// bytes, so truncated, oversized, and garbage streams must surface as
// clean kNeedMore/kBad statuses — never a crash or unbounded buffering —
// and every payload codec must reject malformed payloads.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"

namespace qbs::server {
namespace {

std::vector<uint8_t> FrameOf(FrameType type,
                             const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(&out, type, payload);
  return out;
}

TEST(ProtocolTest, RoundTripsEveryFrameType) {
  for (const FrameType type :
       {FrameType::kQueryRequest, FrameType::kQueryResponse,
        FrameType::kError, FrameType::kBusy, FrameType::kPing,
        FrameType::kPong, FrameType::kShutdown, FrameType::kShutdownAck}) {
    const std::vector<uint8_t> payload{1, 2, 3};
    FrameReader reader;
    reader.Feed(FrameOf(type, payload));
    Frame frame;
    ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
  }
}

TEST(ProtocolTest, ByteAtATimeDelivery) {
  const QueryRequest request(7, 11, QueryMode::kDistance, 5, 1);
  const auto bytes = FrameOf(FrameType::kQueryRequest,
                             EncodeQueryRequest(request));
  FrameReader reader;
  Frame frame;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i + 1 < bytes.size()) {
      reader.Feed(std::span<const uint8_t>(&bytes[i], 1));
      ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore)
          << "byte " << i;
    } else {
      reader.Feed(std::span<const uint8_t>(&bytes[i], 1));
      ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
    }
  }
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload, &decoded));
  EXPECT_EQ(decoded, request);
}

TEST(ProtocolTest, CoalescedFramesInOneFeed) {
  std::vector<uint8_t> stream;
  AppendFrame(&stream, FrameType::kPing, {});
  AppendFrame(&stream, FrameType::kPong, {});
  AppendFrame(&stream, FrameType::kBusy, EncodeBusy(25));
  FrameReader reader;
  reader.Feed(stream);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBusy);
  uint32_t retry = 0;
  ASSERT_TRUE(DecodeBusy(frame.payload, &retry));
  EXPECT_EQ(retry, 25u);
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
}

TEST(ProtocolTest, GarbageMagicIsBadAndSticky) {
  FrameReader reader;
  const std::vector<uint8_t> garbage{'G', 'E', 'T', ' ', '/', ' ', 'H',
                                     'T', 'T', 'P', '/', '1', '.', '1'};
  reader.Feed(garbage);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
  EXPECT_FALSE(reader.error().empty());
  // Sticky: even valid bytes fed afterwards do not resurrect the stream.
  reader.Feed(FrameOf(FrameType::kPing, {}));
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
}

TEST(ProtocolTest, RejectsWrongVersionTypeAndReserved) {
  const auto base = FrameOf(FrameType::kPing, {});
  {
    auto bytes = base;
    bytes[4] = kProtocolVersion + 1;
    FrameReader reader;
    reader.Feed(bytes);
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
  }
  {
    auto bytes = base;
    bytes[5] = 0;  // below the valid FrameType range
    FrameReader reader;
    reader.Feed(bytes);
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
  }
  {
    auto bytes = base;
    bytes[5] = 200;  // above the valid FrameType range
    FrameReader reader;
    reader.Feed(bytes);
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
  }
  {
    auto bytes = base;
    bytes[6] = 1;  // reserved must be zero
    FrameReader reader;
    reader.Feed(bytes);
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
  }
}

TEST(ProtocolTest, OversizedLengthRejectedWithoutBuffering) {
  // A header advertising a payload beyond the reader's cap must fail fast
  // (the reader never waits for — or allocates — the advertised bytes).
  FrameReader reader(/*max_payload=*/1024);
  std::vector<uint8_t> bytes = FrameOf(FrameType::kPing, {});
  bytes[8] = 0xFF;  // length = 0xFFFF... far over the 1 KiB cap
  bytes[9] = 0xFF;
  reader.Feed(bytes);
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kBad);
}

TEST(ProtocolTest, TruncatedStreamStaysNeedMore) {
  auto bytes = FrameOf(FrameType::kQueryRequest,
                       EncodeQueryRequest(QueryRequest(1, 2)));
  bytes.resize(bytes.size() - 5);  // drop the payload tail
  FrameReader reader;
  reader.Feed(bytes);
  Frame frame;
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.Next(&frame), FrameReader::Status::kNeedMore);
}

TEST(ProtocolTest, QueryRequestCodecRoundTrip) {
  const QueryRequest request(123456, 654321, QueryMode::kDistance,
                             /*budget_in=*/7, /*flags_in=*/kQueryFlagNoCache);
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), &decoded));
  EXPECT_EQ(decoded, request);
}

TEST(ProtocolTest, QueryRequestCodecRejectsMalformed) {
  auto payload = EncodeQueryRequest(QueryRequest(1, 2));
  QueryRequest out;
  {
    auto truncated = payload;
    truncated.pop_back();
    EXPECT_FALSE(DecodeQueryRequest(truncated, &out));
  }
  {
    auto oversized = payload;
    oversized.push_back(0);
    EXPECT_FALSE(DecodeQueryRequest(oversized, &out));
  }
  {
    auto bad_mode = payload;
    bad_mode[8] = 9;  // not a QueryMode
    EXPECT_FALSE(DecodeQueryRequest(bad_mode, &out));
  }
}

TEST(ProtocolTest, QueryRequestCodecRejectsUndefinedFlagBits) {
  // kQueryFlagNoCache (bit 0) is the only defined bit; any other must
  // reject, whether or not bit 0 rides along.
  for (const uint32_t flags : {1u << 1, 1u << 31, kQueryFlagNoCache | 1u << 1,
                               kQueryFlagNoCache | 1u << 31}) {
    QueryRequest request(1, 2);
    request.flags = flags;
    QueryRequest out;
    EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(request), &out))
        << "flags=" << flags;
  }
}

TEST(ProtocolTest, QueryResponseCodecRoundTrip) {
  QueryResponse response;
  response.spg.u = 3;
  response.spg.v = 9;
  response.spg.distance = 4;
  response.spg.edges = {{3, 5}, {5, 7}, {7, 9}};
  response.flags = kResponseFlagBudgetExceeded;
  response.cache_hit = true;
  response.stats.edges_scanned_search = 12345;

  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(response), &decoded));
  EXPECT_TRUE(SameAnswer(decoded, response));
  EXPECT_EQ(decoded.spg.u, 3u);
  EXPECT_EQ(decoded.spg.v, 9u);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.stats.TotalEdgesScanned(),
            response.stats.TotalEdgesScanned());
}

TEST(ProtocolTest, QueryResponseCodecRejectsMalformed) {
  QueryResponse response;
  response.spg.u = 1;
  response.spg.v = 2;
  response.spg.distance = 1;
  response.spg.edges = {{1, 2}};
  const auto payload = EncodeQueryResponse(response);
  QueryResponse out;
  {
    auto truncated = payload;
    truncated.resize(4);
    EXPECT_FALSE(DecodeQueryResponse(truncated, &out));
  }
  {
    // Edge count advertising more edges than bytes present.
    auto lying = payload;
    lying[28] = 0xFF;
    EXPECT_FALSE(DecodeQueryResponse(lying, &out));
  }
  {
    auto bad_pad = payload;
    bad_pad[17] = 1;
    EXPECT_FALSE(DecodeQueryResponse(bad_pad, &out));
  }
  // The cache-hit byte is 0 or 1: any other value would decode to a hit
  // that re-encodes as 1, a different payload.
  for (const uint8_t hit : {2, 0x80, 0xFF}) {
    auto bad_hit = payload;
    bad_hit[16] = hit;
    EXPECT_FALSE(DecodeQueryResponse(bad_hit, &out)) << int{hit};
  }
}

// Golden payloads, written out by hand from the layouts in protocol.h:
// encoding must produce exactly these bytes and decoding must give the
// structs back. Several values fill more than one byte of their field,
// which pins the byte order as well as the offsets.
TEST(ProtocolTest, SpgResponseMatchesGoldenBytes) {
  const std::vector<uint8_t> golden = {
      0x02, 0x01, 0x00, 0x00,  // u = 258
      0x70, 0x11, 0x01, 0x00,  // v = 70000
      0x03, 0x00, 0x00, 0x00,  // distance = 3
      0x00, 0x00, 0x00, 0x00,  // flags
      0x01, 0x00, 0x00, 0x00,  // cache hit, 3 reserved bytes
      0x03, 0x02, 0x00, 0x00,  // edges scanned = 0x1'0000'0203 (u64)
      0x01, 0x00, 0x00, 0x00,  //
      0x03, 0x00, 0x00, 0x00,  // 3 edges
      0x02, 0x01, 0x00, 0x00, 0x2C, 0x01, 0x00, 0x00,  // (258, 300)
      0x2C, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,  // (300, 65536)
      0x00, 0x00, 0x01, 0x00, 0x70, 0x11, 0x01, 0x00,  // (65536, 70000)
  };
  QueryResponse response;
  response.spg.u = 258;
  response.spg.v = 70000;
  response.spg.distance = 3;
  response.spg.edges = {{258, 300}, {300, 65536}, {65536, 70000}};
  response.cache_hit = true;
  response.stats.edges_scanned_search = 0x100000203ull;

  EXPECT_EQ(EncodeQueryResponse(response), golden);
  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(golden, &decoded));
  EXPECT_TRUE(SameAnswer(decoded, response));
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.stats.TotalEdgesScanned(), 0x100000203ull);
  EXPECT_EQ(decoded.degraded_lower, 0u);
}

TEST(ProtocolTest, DegradedResponseMatchesGoldenBytes) {
  const std::vector<uint8_t> golden = {
      0x04, 0x00, 0x00, 0x00,  // u = 4
      0x11, 0x00, 0x00, 0x00,  // v = 17
      0x09, 0x00, 0x00, 0x00,  // distance = 9, the upper bound
      0x04, 0x00, 0x00, 0x00,  // flags = kResponseFlagDegraded
      0x00, 0x00, 0x00, 0x00,  // no cache hit, 3 reserved bytes
      0x00, 0x00, 0x00, 0x00,  // edges scanned = 0 (u64)
      0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00,  // 0 edges
      0x06, 0x00, 0x00, 0x00,  // lower bound = 6
  };
  QueryResponse response;
  response.spg.u = 4;
  response.spg.v = 17;
  response.spg.distance = 9;
  response.flags = kResponseFlagDegraded;
  response.degraded_lower = 6;

  EXPECT_EQ(EncodeQueryResponse(response), golden);
  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(golden, &decoded));
  EXPECT_TRUE(SameAnswer(decoded, response));
  EXPECT_FALSE(decoded.cache_hit);
  EXPECT_EQ(decoded.stats.TotalEdgesScanned(), 0u);
  EXPECT_EQ(decoded.degraded_lower, 6u);
}

TEST(ProtocolTest, QueryRequestMatchesGoldenBytes) {
  const std::vector<uint8_t> golden = {
      0x04, 0x03, 0x02, 0x01,  // u = 0x01020304
      0x05, 0x00, 0x00, 0x00,  // v = 5
      0x01, 0x00, 0x00, 0x00,  // mode = kSpg, 3 reserved bytes
      0x07, 0x00, 0x00, 0x00,  // budget = 7
      0x01, 0x00, 0x00, 0x00,  // flags = kQueryFlagNoCache
      0xFA, 0x00, 0x00, 0x00,  // deadline_ms = 250
  };
  const QueryRequest request(0x01020304, 5, QueryMode::kSpg, /*budget_in=*/7,
                             /*flags_in=*/kQueryFlagNoCache,
                             /*deadline_ms_in=*/250);

  EXPECT_EQ(EncodeQueryRequest(request), golden);
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(golden, &decoded));
  EXPECT_EQ(decoded, request);
}

TEST(ProtocolTest, QueryRequestCodecCarriesDeadline) {
  QueryRequest request(7, 8, QueryMode::kSpg, 0, 0, /*deadline_ms_in=*/250);
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), &decoded));
  EXPECT_EQ(decoded.deadline_ms, 250u);
  EXPECT_EQ(decoded, request);
  // deadline 0 ("already expired") is a real value, distinct from the
  // kNoDeadline default.
  request.deadline_ms = 0;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), &decoded));
  EXPECT_EQ(decoded.deadline_ms, 0u);
}

TEST(ProtocolTest, QueryRequestCodecRejectsLegacy20ByteLayout) {
  // The pre-deadline 20-byte layout is gone: only the 24-byte one decodes.
  auto payload = EncodeQueryRequest(QueryRequest(11, 22, QueryMode::kDistance,
                                                 /*budget_in=*/3,
                                                 /*flags_in=*/0,
                                                 /*deadline_ms_in=*/99));
  ASSERT_EQ(payload.size(), 24u);
  payload.resize(20);
  QueryRequest decoded;
  EXPECT_FALSE(DecodeQueryRequest(payload, &decoded));
}

TEST(ProtocolTest, QueryRequestCodecRejectsNonzeroPadding) {
  const auto payload = EncodeQueryRequest(QueryRequest(3, 4, QueryMode::kSpg));
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(payload, &decoded));
  for (size_t byte = 9; byte <= 11; ++byte) {
    auto bad_pad = payload;
    bad_pad[byte] = 1;
    EXPECT_FALSE(DecodeQueryRequest(bad_pad, &decoded)) << "byte " << byte;
  }
}

TEST(ProtocolTest, DegradedResponseCodecRoundTripsTheLowerBound) {
  QueryResponse response;
  response.spg.u = 4;
  response.spg.v = 17;
  response.spg.distance = 9;  // upper bound
  response.flags = kResponseFlagDegraded;
  response.degraded_lower = 6;

  const auto payload = EncodeQueryResponse(response);
  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(payload, &decoded));
  EXPECT_TRUE(decoded.degraded());
  EXPECT_EQ(decoded.degraded_lower, 6u);
  EXPECT_EQ(decoded.distance(), 9u);
  EXPECT_TRUE(SameAnswer(decoded, response));

  // The trailing bound is gated by the flag: with the flag set but the
  // tail missing (or doubled), the payload is malformed, never misread.
  QueryResponse out;
  {
    auto missing_tail = payload;
    missing_tail.resize(missing_tail.size() - 4);
    EXPECT_FALSE(DecodeQueryResponse(missing_tail, &out));
  }
  {
    auto extra_tail = payload;
    extra_tail.insert(extra_tail.end(), {0, 0, 0, 0});
    EXPECT_FALSE(DecodeQueryResponse(extra_tail, &out));
  }
  // And an undegraded response must not carry a tail.
  QueryResponse plain;
  plain.spg.u = 1;
  plain.spg.v = 2;
  plain.spg.distance = 1;
  auto plain_payload = EncodeQueryResponse(plain);
  plain_payload.insert(plain_payload.end(), {1, 2, 3, 4});
  EXPECT_FALSE(DecodeQueryResponse(plain_payload, &out));
}

TEST(ProtocolTest, BusyCodecCarriesQueueDepthAndRejectsLegacy) {
  const auto payload = EncodeBusy(/*retry_after_ms=*/40, /*queue_depth=*/7);
  ASSERT_EQ(payload.size(), 8u);
  uint32_t retry = 0;
  uint32_t depth = 0;
  ASSERT_TRUE(DecodeBusy(payload, &retry, &depth));
  EXPECT_EQ(retry, 40u);
  EXPECT_EQ(depth, 7u);
  // Depth out-param is optional.
  ASSERT_TRUE(DecodeBusy(payload, &retry));
  // The legacy 4-byte hint-only payload, like any other size, is malformed.
  for (const size_t size : {0u, 4u, 6u, 12u}) {
    auto bad = payload;
    bad.resize(size);
    EXPECT_FALSE(DecodeBusy(bad, &retry, &depth)) << size << " bytes";
  }
}

TEST(ProtocolTest, ErrorCodecRoundTrip) {
  const auto payload = EncodeError(ErrorCode::kVertexOutOfRange, "nope");
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, ErrorCode::kVertexOutOfRange);
  EXPECT_EQ(message, "nope");
  EXPECT_FALSE(DecodeError(std::vector<uint8_t>{1, 2}, &code, &message));
}

TEST(ProtocolTest, LongStreamCompactsWithoutLosingFrames) {
  // Many frames through one reader: the lazy compaction path must never
  // drop or duplicate a frame.
  FrameReader reader;
  std::vector<uint8_t> stream;
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    AppendFrame(&stream, FrameType::kBusy,
                EncodeBusy(static_cast<uint32_t>(i)));
  }
  // Feed in ragged 37-byte chunks so frame boundaries never align.
  int seen = 0;
  Frame frame;
  for (size_t off = 0; off < stream.size(); off += 37) {
    const size_t len = std::min<size_t>(37, stream.size() - off);
    reader.Feed(std::span<const uint8_t>(stream.data() + off, len));
    while (reader.Next(&frame) == FrameReader::Status::kFrame) {
      uint32_t value = 0;
      ASSERT_TRUE(DecodeBusy(frame.payload, &value));
      ASSERT_EQ(value, static_cast<uint32_t>(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, kFrames);
}

}  // namespace
}  // namespace qbs::server
