// The `qbs serve` wire protocol: length-prefixed binary frames carrying
// the unified QueryRequest/QueryResponse structs (core/query_api.h).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic     "QBSP" (0x50534251 as a LE u32)
//        4     1  version   kProtocolVersion
//        5     1  type      FrameType
//        6     2  reserved  must be 0
//        8     4  length    payload bytes that follow the 12-byte header
//
// The decoder is defensive by construction: frames are parsed from an
// untrusted byte stream, so a bad magic/version/type, a nonzero reserved
// field, or a length beyond the caller's cap surfaces as kBad — never a
// crash, never unbounded buffering. Truncated input is simply kNeedMore
// until the peer delivers the rest (or closes the connection).
//
// Payload codecs are pure functions over byte vectors, so the whole
// protocol is unit-testable without a socket in sight. Each encoder sizes
// its buffer once and stores fields in host order, which on the
// little-endian hosts the codecs require is the wire order.

#ifndef QBS_SERVER_PROTOCOL_H_
#define QBS_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/query_api.h"
#include "core/updatable_index.h"
#include "graph/graph_delta.h"

namespace qbs::server {

inline constexpr uint32_t kProtocolMagic = 0x50534251u;  // "QBSP"
inline constexpr uint8_t kProtocolVersion = 1;
/// Frame header bytes before the payload.
inline constexpr size_t kFrameHeaderBytes = 12;
/// Hard ceiling a FrameReader will ever accept, regardless of its
/// configured cap (a response SPG on a huge graph is the largest payload).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
/// Default cap for server-side request parsing: requests are tiny, so
/// anything large is garbage or abuse.
inline constexpr uint32_t kMaxRequestPayload = 1u << 20;

enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kError = 3,
  /// Admission control pushed back: the request was NOT executed; retry
  /// later. Payload: u32 advisory retry-after hint in milliseconds, then
  /// u32 admission queue depth (EncodeBusy).
  kBusy = 4,
  kPing = 5,
  kPong = 6,
  /// Ask the daemon to shut down cleanly (answered with kShutdownAck
  /// before the server stops accepting).
  kShutdown = 7,
  kShutdownAck = 8,
  /// An edge edit script for the daemon's index (requires `qbs serve
  /// --updatable`; otherwise answered with a kBadRequest error). Applied
  /// atomically w.r.t. queries, answered with kUpdateResponse.
  kUpdateRequest = 9,
  kUpdateResponse = 10,
};

/// Error payload codes.
enum class ErrorCode : uint32_t {
  kBadRequest = 1,       // undecodable or malformed request payload
  kVertexOutOfRange = 2, // u or v >= |V|
  kInternal = 3,
  kShuttingDown = 4,
  /// The request's deadline_ms ran out before its query began executing
  /// (at receipt, after an admission wait, or after injected slowness).
  /// The request was NOT executed; the connection stays open.
  kDeadlineExceeded = 5,
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<uint8_t> payload;
};

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 std::span<const uint8_t> payload);

/// Incremental frame decoder over an untrusted byte stream.
class FrameReader {
 public:
  enum class Status {
    kFrame,     // *frame was filled with one complete frame
    kNeedMore,  // no complete frame buffered yet
    kBad,       // stream is corrupt; error() says why. Unrecoverable:
                // framing is lost, the connection should be closed.
  };

  /// `max_payload` caps accepted frame lengths (clamped to
  /// kMaxFramePayload).
  explicit FrameReader(uint32_t max_payload = kMaxFramePayload);

  /// Feeds raw bytes from the stream.
  void Feed(std::span<const uint8_t> data);

  /// Extracts the next complete frame, if any. Once kBad is returned every
  /// subsequent call returns kBad.
  Status Next(Frame* frame);

  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet returned as frames: > 0 means a frame is
  /// in flight (the server's read-timeout/idle-reaper distinction).
  size_t PendingBytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out
  uint32_t max_payload_;
  bool bad_ = false;
  std::string error_;
};

// ---- Payload codecs -------------------------------------------------------
// Every Decode* returns false (leaving *out unspecified) on a payload of
// the wrong size or with out-of-range enum values; they never read past
// the span.

/// 24-byte fixed layout: u32 u, u32 v, u8 mode, 3 reserved bytes (must be
/// 0), u32 budget, u32 flags (kQueryFlag* only; unknown bits reject, so
/// the server answers kBadRequest), u32 deadline_ms.
std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
bool DecodeQueryRequest(std::span<const uint8_t> payload, QueryRequest* out);

/// Response payload: a 32-byte fixed part — u32 u, u32 v, u32 distance,
/// u32 flags (kResponseFlag*), u8 cache hit (0 or 1; any other value
/// rejects), 3 reserved bytes (must be 0), u64 total edges scanned, u32
/// edge count n — then the edge block, n records of u32 u, u32 v (8n
/// bytes, spg.edges exactly as stored). Degraded answers
/// (kResponseFlagDegraded) append a u32 lower bound after the edge block;
/// the flag gates its presence, so the payload is 32 + 8n (+ 4) bytes.
/// The edge block moves with one memcpy each way; like every field, it is
/// in host order, hence the little-endian requirement (a static_assert in
/// protocol.cc, as the index and graph-cache formats already assume). An
/// accepted payload re-encodes to the same bytes.
std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response);
bool DecodeQueryResponse(std::span<const uint8_t> payload,
                         QueryResponse* out);

std::vector<uint8_t> EncodeError(ErrorCode code, const std::string& message);
bool DecodeError(std::span<const uint8_t> payload, ErrorCode* code,
                 std::string* message);

/// Update request payload: u32 edit count, u32 reserved (must be 0; nonzero
/// rejects, so the server answers kBadRequest), then one 12-byte record per
/// edit — u8 op (EdgeOp), 3 reserved bytes (must be 0), u32 u, u32 v.
/// Endpoint range checks happen server-side against |V| (out-of-range
/// edits count as invalid, they don't poison the frame). Every update is
/// applied exactly before its response is sent.
std::vector<uint8_t> EncodeUpdateRequest(const GraphDelta& delta);
bool DecodeUpdateRequest(std::span<const uint8_t> payload, GraphDelta* delta);

/// Update response payload: the UpdateStats the apply produced — four u64
/// counters (applied inserts/deletes, no-ops, invalid) then two u32
/// fields (repaired, rebuilt columns). 40 bytes. The rebuilt field always
/// carries 0 (no column is rebuilt any more); it stays so the layout and
/// bench_e2e, which reads it, are unchanged.
std::vector<uint8_t> EncodeUpdateResponse(const UpdateStats& stats);
bool DecodeUpdateResponse(std::span<const uint8_t> payload,
                          UpdateStats* stats);

/// Busy payload, 8 bytes: u32 retry-after hint + u32 admission queue depth
/// observed at rejection (how deep the backlog was — `qbs load` turns this
/// into a shed-rate report).
std::vector<uint8_t> EncodeBusy(uint32_t retry_after_ms,
                                uint32_t queue_depth = 0);
bool DecodeBusy(std::span<const uint8_t> payload, uint32_t* retry_after_ms,
                uint32_t* queue_depth = nullptr);

}  // namespace qbs::server

#endif  // QBS_SERVER_PROTOCOL_H_
