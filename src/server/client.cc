#include "server/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace qbs::server {

uint32_t RetryBackoff::DelayMs(uint32_t retry, uint32_t server_hint_ms) const {
  double base = static_cast<double>(policy_.base_backoff_ms);
  for (uint32_t i = 0; i < retry; ++i) {
    base *= policy_.multiplier;
    if (base >= static_cast<double>(policy_.max_backoff_ms)) break;
  }
  base = std::min(base, static_cast<double>(policy_.max_backoff_ms));
  // Seeded jitter in [1 - jitter, 1 + jitter]: a pure function of
  // (seed, retry), so replays produce the identical schedule.
  const double jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  if (jitter > 0.0) {
    const uint64_t draw = SplitMix64(policy_.seed ^ SplitMix64(retry + 1));
    const double unit =
        static_cast<double>(draw >> 11) / 9007199254740992.0;  // [0, 1)
    base *= 1.0 + jitter * (2.0 * unit - 1.0);
  }
  const uint32_t delay =
      static_cast<uint32_t>(std::llround(std::max(base, 0.0)));
  return std::max(delay, server_hint_ms);
}

bool QueryClient::Connect(const std::string& host, uint16_t port,
                          const ClientOptions& options) {
  Close();
  host_ = host;
  port_ = port;
  options_ = options;
  std::string error;
  Socket sock = Socket::ConnectTcp(host, port, &error);
  if (!sock.valid()) {
    last_error_ = error;
    return false;
  }
  sock.SetNoDelay();
  sock.set_fault_injector(options_.fault_injector);
  sock_ = std::move(sock);
  reader_ = FrameReader();  // fresh framing state for the new stream
  return true;
}

bool QueryClient::Reconnect() {
  if (host_.empty()) {
    last_error_ = "no prior Connect() to redial";
    return false;
  }
  return Connect(host_, port_, options_);
}

void QueryClient::Close() { sock_.Close(); }

bool QueryClient::SendFrame(FrameType type, std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame;
  AppendFrame(&frame, type, payload);
  const IoStatus status = sock_.SendAll(frame, options_.write_timeout_ms);
  if (status != IoStatus::kOk) {
    last_error_ = std::string("send: ") +
                  (status == IoStatus::kTimeout
                       ? "timed out"
                       : ErrnoString(sock_.last_errno()));
    return false;
  }
  return true;
}

bool QueryClient::ReadFrame(Frame* reply) {
  uint8_t buf[64 * 1024];
  for (;;) {
    switch (reader_.Next(reply)) {
      case FrameReader::Status::kFrame:
        return true;
      case FrameReader::Status::kBad:
        last_error_ = "protocol error from server: " + reader_.error();
        return false;
      case FrameReader::Status::kNeedMore:
        break;
    }
    size_t n = 0;
    const IoStatus status =
        sock_.RecvSome(buf, sizeof(buf), &n, options_.read_timeout_ms);
    if (status != IoStatus::kOk) {
      switch (status) {
        case IoStatus::kTimeout:
          last_error_ = "recv: timed out waiting for reply";
          break;
        case IoStatus::kClosed:
          last_error_ = "connection closed by server";
          break;
        default:
          last_error_ = std::string("recv: ") + ErrnoString(sock_.last_errno());
          break;
      }
      return false;
    }
    reader_.Feed(std::span<const uint8_t>(buf, n));
  }
}

bool QueryClient::RoundTrip(FrameType type, std::span<const uint8_t> payload,
                            Frame* reply) {
  if (!sock_.valid()) {
    last_error_ = "not connected";
    return false;
  }
  if (!SendFrame(type, payload) || !ReadFrame(reply)) {
    Close();
    return false;
  }
  return true;
}

QueryClient::RpcStatus QueryClient::Query(const QueryRequest& request,
                                          QueryResponse* response) {
  Frame reply;
  if (!RoundTrip(FrameType::kQueryRequest, EncodeQueryRequest(request),
                 &reply)) {
    return RpcStatus::kTransportError;
  }
  switch (reply.type) {
    case FrameType::kQueryResponse:
      if (!DecodeQueryResponse(reply.payload, response)) {
        last_error_ = "undecodable query response";
        Close();
        return RpcStatus::kTransportError;
      }
      return RpcStatus::kOk;
    case FrameType::kBusy: {
      uint32_t hint = 0;
      uint32_t depth = 0;
      if (DecodeBusy(reply.payload, &hint, &depth)) {
        retry_after_ms_ = hint;
        busy_queue_depth_ = depth;
      }
      return RpcStatus::kBusy;
    }
    default:
      return FailedReply(reply);
  }
}

QueryClient::RpcStatus QueryClient::QueryWithRetry(const QueryRequest& request,
                                                   QueryResponse* response,
                                                   const RetryPolicy& policy,
                                                   RetryStats* stats) {
  const RetryBackoff backoff(policy);
  const uint32_t max_attempts = std::max<uint32_t>(policy.max_attempts, 1);
  RetryStats local;
  RpcStatus status = RpcStatus::kTransportError;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const uint32_t hint =
          status == RpcStatus::kBusy ? retry_after_ms_ : 0;
      const uint32_t delay_ms = backoff.DelayMs(attempt - 1, hint);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      local.total_backoff_ms += delay_ms;
    }
    if (!connected()) {
      if (!Reconnect()) {
        // Counts as a spent attempt: a dead endpoint must not spin the
        // loop without backoff.
        ++local.attempts;
        status = RpcStatus::kTransportError;
        ++local.transport_retries;
        continue;
      }
      ++local.reconnects;
    }
    ++local.attempts;
    status = Query(request, response);
    if (status == RpcStatus::kOk || status == RpcStatus::kRemoteError ||
        status == RpcStatus::kDeadlineExceeded) {
      break;  // the server answered: terminal either way
    }
    if (status == RpcStatus::kBusy) {
      local.last_queue_depth = busy_queue_depth_;
      ++local.busy_retries;
      continue;
    }
    ++local.transport_retries;  // kTransportError: reconnect and retry
  }
  // The final attempt's failure never fed a retry: don't count it as one.
  if (status == RpcStatus::kBusy && local.busy_retries > 0) {
    --local.busy_retries;
  }
  if (status == RpcStatus::kTransportError && local.transport_retries > 0) {
    --local.transport_retries;
  }
  if (stats != nullptr) *stats = local;
  return status;
}

QueryClient::RpcStatus QueryClient::Update(const GraphDelta& delta,
                                           UpdateStats* stats) {
  Frame reply;
  if (!RoundTrip(FrameType::kUpdateRequest, EncodeUpdateRequest(delta),
                 &reply)) {
    return RpcStatus::kTransportError;
  }
  if (reply.type != FrameType::kUpdateResponse) return FailedReply(reply);
  UpdateStats decoded;
  if (!DecodeUpdateResponse(reply.payload, &decoded)) {
    last_error_ = "undecodable update response";
    Close();
    return RpcStatus::kTransportError;
  }
  if (stats != nullptr) *stats = decoded;
  return RpcStatus::kOk;
}

QueryClient::RpcStatus QueryClient::FailedReply(const Frame& reply) {
  if (reply.type != FrameType::kError) {
    last_error_ = "unexpected reply frame type " +
                  std::to_string(static_cast<unsigned>(reply.type));
    Close();
    return RpcStatus::kTransportError;
  }
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  if (DecodeError(reply.payload, &code, &message)) {
    last_error_ = message;
  } else {
    last_error_ = "undecodable error frame";
  }
  last_error_code_ = code;
  return code == ErrorCode::kDeadlineExceeded ? RpcStatus::kDeadlineExceeded
                                              : RpcStatus::kRemoteError;
}

bool QueryClient::Ping() {
  Frame reply;
  return RoundTrip(FrameType::kPing, {}, &reply) &&
         reply.type == FrameType::kPong;
}

bool QueryClient::Shutdown() {
  Frame reply;
  return RoundTrip(FrameType::kShutdown, {}, &reply) &&
         reply.type == FrameType::kShutdownAck;
}

}  // namespace qbs::server
