#include "server/protocol.h"

#include <algorithm>
#include <cstring>

namespace qbs::server {
namespace {

void Put16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void Put32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Put64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t Get16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t Get32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

uint64_t Get64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kQueryRequest) &&
         t <= static_cast<uint8_t>(FrameType::kUpdateResponse);
}

}  // namespace

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 std::span<const uint8_t> payload) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  Put32(out, kProtocolMagic);
  out->push_back(kProtocolVersion);
  out->push_back(static_cast<uint8_t>(type));
  Put16(out, 0);  // reserved
  Put32(out, static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
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
  if (Get32(header) != kProtocolMagic) {
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
  if (Get16(header + 6) != 0) {
    bad_ = true;
    error_ = "nonzero reserved field";
    return Status::kBad;
  }
  const uint32_t length = Get32(header + 8);
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
  std::vector<uint8_t> out;
  out.reserve(24);
  Put32(&out, request.u);
  Put32(&out, request.v);
  out.push_back(static_cast<uint8_t>(request.mode));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  Put32(&out, request.budget);
  Put32(&out, request.flags);
  Put32(&out, request.deadline_ms);
  return out;
}

bool DecodeQueryRequest(std::span<const uint8_t> payload, QueryRequest* out) {
  if (payload.size() != 24) return false;
  const uint8_t mode = payload[8];
  if (mode > static_cast<uint8_t>(QueryMode::kSpg)) return false;
  if (payload[9] != 0 || payload[10] != 0 || payload[11] != 0) return false;
  const uint32_t flags = Get32(payload.data() + 16);
  if ((flags & ~kQueryFlagNoCache) != 0) return false;
  out->u = Get32(payload.data());
  out->v = Get32(payload.data() + 4);
  out->mode = static_cast<QueryMode>(mode);
  out->budget = Get32(payload.data() + 12);
  out->flags = flags;
  out->deadline_ms = Get32(payload.data() + 20);
  return true;
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(32 + response.spg.edges.size() * 8);
  Put32(&out, response.spg.u);
  Put32(&out, response.spg.v);
  Put32(&out, response.spg.distance);
  Put32(&out, response.flags);
  out.push_back(response.cache_hit ? 1 : 0);
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  Put64(&out, response.stats.TotalEdgesScanned());
  Put32(&out, static_cast<uint32_t>(response.spg.edges.size()));
  for (const Edge& e : response.spg.edges) {
    Put32(&out, e.u);
    Put32(&out, e.v);
  }
  if ((response.flags & kResponseFlagDegraded) != 0) {
    Put32(&out, response.degraded_lower);
  }
  return out;
}

bool DecodeQueryResponse(std::span<const uint8_t> payload,
                         QueryResponse* out) {
  constexpr size_t kFixed = 32;
  if (payload.size() < kFixed) return false;
  if (payload[17] != 0 || payload[18] != 0 || payload[19] != 0) return false;
  const uint32_t num_edges = Get32(payload.data() + 28);
  const uint32_t flags = Get32(payload.data() + 12);
  const size_t tail = (flags & kResponseFlagDegraded) != 0 ? 4 : 0;
  if (payload.size() != kFixed + static_cast<size_t>(num_edges) * 8 + tail) {
    return false;
  }
  *out = QueryResponse();
  out->spg.u = Get32(payload.data());
  out->spg.v = Get32(payload.data() + 4);
  out->spg.distance = Get32(payload.data() + 8);
  out->flags = flags;
  out->cache_hit = payload[16] != 0;
  // The decoded edge-scan total lands in the search counter: the client
  // only ever reads the aggregate back via TotalEdgesScanned().
  out->stats.edges_scanned_search = Get64(payload.data() + 20);
  out->spg.edges.reserve(num_edges);
  const uint8_t* p = payload.data() + kFixed;
  for (uint32_t i = 0; i < num_edges; ++i, p += 8) {
    out->spg.edges.emplace_back(Get32(p), Get32(p + 4));
  }
  if (tail != 0) out->degraded_lower = Get32(p);
  return true;
}

std::vector<uint8_t> EncodeError(ErrorCode code, const std::string& message) {
  std::vector<uint8_t> out;
  out.reserve(4 + message.size());
  Put32(&out, static_cast<uint32_t>(code));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

bool DecodeError(std::span<const uint8_t> payload, ErrorCode* code,
                 std::string* message) {
  if (payload.size() < 4) return false;
  *code = static_cast<ErrorCode>(Get32(payload.data()));
  message->assign(payload.begin() + 4, payload.end());
  return true;
}

std::vector<uint8_t> EncodeUpdateRequest(const GraphDelta& delta) {
  std::vector<uint8_t> out;
  out.reserve(8 + delta.size() * 12);
  Put32(&out, static_cast<uint32_t>(delta.size()));
  Put32(&out, 0);  // reserved
  for (const EdgeUpdate& upd : delta.updates()) {
    out.push_back(static_cast<uint8_t>(upd.op));
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
    Put32(&out, upd.u);
    Put32(&out, upd.v);
  }
  return out;
}

bool DecodeUpdateRequest(std::span<const uint8_t> payload,
                         GraphDelta* delta) {
  if (payload.size() < 8) return false;
  const uint32_t count = Get32(payload.data());
  if (Get32(payload.data() + 4) != 0) return false;
  if (payload.size() != 8 + static_cast<size_t>(count) * 12) return false;
  delta->Clear();
  const uint8_t* p = payload.data() + 8;
  for (uint32_t i = 0; i < count; ++i, p += 12) {
    if (p[0] > static_cast<uint8_t>(EdgeOp::kDelete)) return false;
    if (p[1] != 0 || p[2] != 0 || p[3] != 0) return false;
    delta->Add(EdgeUpdate{static_cast<EdgeOp>(p[0]), Get32(p + 4),
                          Get32(p + 8)});
  }
  return true;
}

std::vector<uint8_t> EncodeUpdateResponse(const UpdateStats& stats) {
  std::vector<uint8_t> out;
  out.reserve(40);
  Put64(&out, stats.applied_inserts);
  Put64(&out, stats.applied_deletes);
  Put64(&out, stats.noop_updates);
  Put64(&out, stats.invalid_updates);
  Put32(&out, stats.repaired_columns);
  Put32(&out, stats.rebuilt_columns);
  return out;
}

bool DecodeUpdateResponse(std::span<const uint8_t> payload,
                          UpdateStats* stats) {
  if (payload.size() != 40) return false;
  *stats = UpdateStats();
  stats->applied_inserts = Get64(payload.data());
  stats->applied_deletes = Get64(payload.data() + 8);
  stats->noop_updates = Get64(payload.data() + 16);
  stats->invalid_updates = Get64(payload.data() + 24);
  stats->repaired_columns = Get32(payload.data() + 32);
  stats->rebuilt_columns = Get32(payload.data() + 36);
  return true;
}

std::vector<uint8_t> EncodeBusy(uint32_t retry_after_ms,
                                uint32_t queue_depth) {
  std::vector<uint8_t> out;
  Put32(&out, retry_after_ms);
  Put32(&out, queue_depth);
  return out;
}

bool DecodeBusy(std::span<const uint8_t> payload, uint32_t* retry_after_ms,
                uint32_t* queue_depth) {
  if (payload.size() != 8) return false;
  *retry_after_ms = Get32(payload.data());
  if (queue_depth != nullptr) *queue_depth = Get32(payload.data() + 4);
  return true;
}

}  // namespace qbs::server
