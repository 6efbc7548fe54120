#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace qbs::server {

// Every payload integer is stored in host order, so the codecs are only
// correct on a little-endian host — the index and graph-cache formats
// assume the same.
static_assert(std::endian::native == std::endian::little,
              "the QBSP codecs store integers in host (little-endian) order");
// A response's edge block is the spg.edges array itself: (u, v) as two
// packed u32 per edge, moved with one memcpy each way.
static_assert(std::is_trivially_copyable_v<Edge> &&
                  sizeof(Edge) == 2 * sizeof(uint32_t) &&
                  offsetof(Edge, u) == 0 && offsetof(Edge, v) == 4,
              "Edge must be two packed u32s to be copied as a block");

namespace {

/// Fixed part of a response payload, before its edge block.
constexpr size_t kResponseFixedBytes = 32;

/// Stores `v` at `p` (any alignment) and returns the byte after it.
template <typename T>
uint8_t* Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename T>
T Load(const uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kQueryRequest) &&
         t <= static_cast<uint8_t>(FrameType::kUpdateResponse);
}

}  // namespace

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 std::span<const uint8_t> payload) {
  const size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + payload.size());
  uint8_t* p = Store<uint32_t>(out->data() + start, kProtocolMagic);
  *p++ = kProtocolVersion;
  *p++ = static_cast<uint8_t>(type);
  p = Store<uint16_t>(p, 0);  // reserved
  p = Store<uint32_t>(p, static_cast<uint32_t>(payload.size()));
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
}

FrameReader::FrameReader(uint32_t max_payload)
    : max_payload_(std::min(max_payload, kMaxFramePayload)) {}

void FrameReader::Feed(std::span<const uint8_t> data) {
  if (bad_) return;  // corrupt streams buffer nothing further
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

FrameReader::Status FrameReader::Next(Frame* frame) {
  if (bad_) return Status::kBad;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Status::kNeedMore;
  const uint8_t* header = buffer_.data() + consumed_;
  if (Load<uint32_t>(header) != kProtocolMagic) {
    bad_ = true;
    error_ = "bad magic";
    return Status::kBad;
  }
  if (header[4] != kProtocolVersion) {
    bad_ = true;
    error_ = "unsupported protocol version " + std::to_string(header[4]);
    return Status::kBad;
  }
  if (!ValidFrameType(header[5])) {
    bad_ = true;
    error_ = "unknown frame type " + std::to_string(header[5]);
    return Status::kBad;
  }
  if (Load<uint16_t>(header + 6) != 0) {
    bad_ = true;
    error_ = "nonzero reserved field";
    return Status::kBad;
  }
  const uint32_t length = Load<uint32_t>(header + 8);
  if (length > max_payload_) {
    bad_ = true;
    error_ = "oversized frame payload (" + std::to_string(length) +
             " > " + std::to_string(max_payload_) + ")";
    return Status::kBad;
  }
  if (available < kFrameHeaderBytes + length) return Status::kNeedMore;
  frame->type = static_cast<FrameType>(header[5]);
  const uint8_t* payload = header + kFrameHeaderBytes;
  frame->payload.assign(payload, payload + length);
  consumed_ += kFrameHeaderBytes + length;
  return Status::kFrame;
}

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request) {
  std::vector<uint8_t> out(24);  // zero-filled: the reserved bytes stay 0
  uint8_t* p = Store<uint32_t>(out.data(), request.u);
  p = Store<uint32_t>(p, request.v);
  *p = static_cast<uint8_t>(request.mode);  // then 3 reserved bytes
  p = Store<uint32_t>(p + 4, request.budget);
  p = Store<uint32_t>(p, request.flags);
  Store<uint32_t>(p, request.deadline_ms);
  return out;
}

bool DecodeQueryRequest(std::span<const uint8_t> payload, QueryRequest* out) {
  if (payload.size() != 24) return false;
  const uint8_t mode = payload[8];
  if (mode > static_cast<uint8_t>(QueryMode::kSpg)) return false;
  if (payload[9] != 0 || payload[10] != 0 || payload[11] != 0) return false;
  const uint32_t flags = Load<uint32_t>(payload.data() + 16);
  if ((flags & ~kQueryFlagNoCache) != 0) return false;
  out->u = Load<uint32_t>(payload.data());
  out->v = Load<uint32_t>(payload.data() + 4);
  out->mode = static_cast<QueryMode>(mode);
  out->budget = Load<uint32_t>(payload.data() + 12);
  out->flags = flags;
  out->deadline_ms = Load<uint32_t>(payload.data() + 20);
  return true;
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response) {
  const std::vector<Edge>& edges = response.spg.edges;
  const size_t edge_bytes = edges.size() * sizeof(Edge);
  const bool degraded = (response.flags & kResponseFlagDegraded) != 0;
  std::vector<uint8_t> out(kResponseFixedBytes + edge_bytes +
                           (degraded ? 4 : 0));
  uint8_t* p = Store<uint32_t>(out.data(), response.spg.u);
  p = Store<uint32_t>(p, response.spg.v);
  p = Store<uint32_t>(p, response.spg.distance);
  p = Store<uint32_t>(p, response.flags);
  *p = response.cache_hit ? 1 : 0;  // then 3 reserved zero bytes
  p = Store<uint64_t>(p + 4, response.stats.TotalEdgesScanned());
  p = Store<uint32_t>(p, static_cast<uint32_t>(edges.size()));
  if (edge_bytes != 0) std::memcpy(p, edges.data(), edge_bytes);
  if (degraded) Store<uint32_t>(p + edge_bytes, response.degraded_lower);
  return out;
}

bool DecodeQueryResponse(std::span<const uint8_t> payload,
                         QueryResponse* out) {
  if (payload.size() < kResponseFixedBytes) return false;
  // The hit byte is 0 or 1, so an accepted payload re-encodes to itself.
  if (payload[16] > 1) return false;
  if (payload[17] != 0 || payload[18] != 0 || payload[19] != 0) return false;
  const uint32_t num_edges = Load<uint32_t>(payload.data() + 28);
  const uint32_t flags = Load<uint32_t>(payload.data() + 12);
  const size_t edge_bytes = static_cast<size_t>(num_edges) * sizeof(Edge);
  const size_t tail = (flags & kResponseFlagDegraded) != 0 ? 4 : 0;
  if (payload.size() != kResponseFixedBytes + edge_bytes + tail) return false;
  *out = QueryResponse();
  out->spg.u = Load<uint32_t>(payload.data());
  out->spg.v = Load<uint32_t>(payload.data() + 4);
  out->spg.distance = Load<uint32_t>(payload.data() + 8);
  out->flags = flags;
  out->cache_hit = payload[16] != 0;
  // The decoded edge-scan total lands in the search counter: the client
  // only ever reads the aggregate back via TotalEdgesScanned().
  out->stats.edges_scanned_search = Load<uint64_t>(payload.data() + 20);
  const uint8_t* p = payload.data() + kResponseFixedBytes;
  out->spg.edges.resize(num_edges);
  if (edge_bytes != 0) std::memcpy(out->spg.edges.data(), p, edge_bytes);
  if (tail != 0) out->degraded_lower = Load<uint32_t>(p + edge_bytes);
  return true;
}

std::vector<uint8_t> EncodeError(ErrorCode code, const std::string& message) {
  std::vector<uint8_t> out(4 + message.size());
  uint8_t* p = Store<uint32_t>(out.data(), static_cast<uint32_t>(code));
  if (!message.empty()) std::memcpy(p, message.data(), message.size());
  return out;
}

bool DecodeError(std::span<const uint8_t> payload, ErrorCode* code,
                 std::string* message) {
  if (payload.size() < 4) return false;
  *code = static_cast<ErrorCode>(Load<uint32_t>(payload.data()));
  message->assign(payload.begin() + 4, payload.end());
  return true;
}

std::vector<uint8_t> EncodeUpdateRequest(const GraphDelta& delta) {
  // Zero-filled: the reserved word and each record's 3 reserved bytes
  // stay 0.
  std::vector<uint8_t> out(8 + delta.size() * 12);
  uint8_t* p =
      Store<uint32_t>(out.data(), static_cast<uint32_t>(delta.size()));
  p += 4;  // reserved
  for (const EdgeUpdate& upd : delta.updates()) {
    *p = static_cast<uint8_t>(upd.op);  // then 3 reserved bytes
    p = Store<uint32_t>(p + 4, upd.u);
    p = Store<uint32_t>(p, upd.v);
  }
  return out;
}

bool DecodeUpdateRequest(std::span<const uint8_t> payload,
                         GraphDelta* delta) {
  if (payload.size() < 8) return false;
  const uint32_t count = Load<uint32_t>(payload.data());
  if (Load<uint32_t>(payload.data() + 4) != 0) return false;
  if (payload.size() != 8 + static_cast<size_t>(count) * 12) return false;
  delta->Clear();
  const uint8_t* p = payload.data() + 8;
  for (uint32_t i = 0; i < count; ++i, p += 12) {
    if (p[0] > static_cast<uint8_t>(EdgeOp::kDelete)) return false;
    if (p[1] != 0 || p[2] != 0 || p[3] != 0) return false;
    delta->Add(EdgeUpdate{static_cast<EdgeOp>(p[0]), Load<uint32_t>(p + 4),
                          Load<uint32_t>(p + 8)});
  }
  return true;
}

std::vector<uint8_t> EncodeUpdateResponse(const UpdateStats& stats) {
  std::vector<uint8_t> out(40);
  uint8_t* p = Store<uint64_t>(out.data(), stats.applied_inserts);
  p = Store<uint64_t>(p, stats.applied_deletes);
  p = Store<uint64_t>(p, stats.noop_updates);
  p = Store<uint64_t>(p, stats.invalid_updates);
  p = Store<uint32_t>(p, stats.repaired_columns);
  Store<uint32_t>(p, stats.rebuilt_columns);
  return out;
}

bool DecodeUpdateResponse(std::span<const uint8_t> payload,
                          UpdateStats* stats) {
  if (payload.size() != 40) return false;
  *stats = UpdateStats();
  stats->applied_inserts = Load<uint64_t>(payload.data());
  stats->applied_deletes = Load<uint64_t>(payload.data() + 8);
  stats->noop_updates = Load<uint64_t>(payload.data() + 16);
  stats->invalid_updates = Load<uint64_t>(payload.data() + 24);
  stats->repaired_columns = Load<uint32_t>(payload.data() + 32);
  stats->rebuilt_columns = Load<uint32_t>(payload.data() + 36);
  return true;
}

std::vector<uint8_t> EncodeBusy(uint32_t retry_after_ms,
                                uint32_t queue_depth) {
  std::vector<uint8_t> out(8);
  Store<uint32_t>(Store<uint32_t>(out.data(), retry_after_ms), queue_depth);
  return out;
}

bool DecodeBusy(std::span<const uint8_t> payload, uint32_t* retry_after_ms,
                uint32_t* queue_depth) {
  if (payload.size() != 8) return false;
  *retry_after_ms = Load<uint32_t>(payload.data());
  if (queue_depth != nullptr) {
    *queue_depth = Load<uint32_t>(payload.data() + 4);
  }
  return true;
}

}  // namespace qbs::server
