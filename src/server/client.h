// Blocking client for the `qbs serve` protocol: one TCP connection, one
// outstanding request at a time. Used by the `qbs load` driver, the CLI's
// remote query path, bench_e2e's serving workloads, and the server/chaos
// tests.
//
// Robustness surface:
//   * All socket I/O goes through server/socket.h — EINTR-retried,
//     MSG_NOSIGNAL, optionally poll-bounded by ClientOptions timeouts, and
//     fault-injectable for chaos tests.
//   * QueryWithRetry() layers a deterministic RetryPolicy on Query():
//     exponential backoff with seeded jitter, honoring the server's
//     retry_after hint and reconnecting across transport errors, for at
//     most max_attempts tries. The backoff schedule is a pure function of
//     (policy, retry index) — same seed, same schedule, every run.

#ifndef QBS_SERVER_CLIENT_H_
#define QBS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "core/query_api.h"
#include "server/fault_injection.h"
#include "server/protocol.h"
#include "server/socket.h"

namespace qbs::server {

/// Client-side socket behavior. The defaults preserve the pre-hardening
/// client: block without bound, no faults.
struct ClientOptions {
  /// Max milliseconds to wait for each chunk of a reply (inactivity bound,
  /// not a whole-response deadline); kNoTimeout = block forever.
  int32_t read_timeout_ms = kNoTimeout;
  /// Max milliseconds a request write may stall; kNoTimeout = forever.
  int32_t write_timeout_ms = kNoTimeout;
  /// Chaos hook attached to the connection's socket. Not owned; must
  /// outlive the client. nullptr = no faults.
  FaultInjector* fault_injector = nullptr;
};

/// Deterministic retry schedule for QueryWithRetry. Retry `i` (0-based)
/// sleeps min(max_backoff_ms, base_backoff_ms * multiplier^i), scaled by a
/// seeded jitter factor in [1 - jitter, 1 + jitter] — a pure function of
/// (seed, i), so a replayed run backs off identically. The server's
/// retry_after hint acts as a floor on busy retries.
struct RetryPolicy {
  /// Total tries including the first; >= 1 enforced.
  uint32_t max_attempts = 4;
  uint32_t base_backoff_ms = 10;
  uint32_t max_backoff_ms = 1000;
  double multiplier = 2.0;
  /// Fractional jitter amplitude in [0, 1).
  double jitter = 0.2;
  /// Jitter stream seed (deterministic replay).
  uint64_t seed = 1;
};

/// The schedule half of RetryPolicy, exposed for determinism tests.
class RetryBackoff {
 public:
  explicit RetryBackoff(const RetryPolicy& policy) : policy_(policy) {}

  /// Backoff before retry `retry` (0-based), honoring `server_hint_ms` as
  /// a floor. Pure: no internal state, no clock, no global RNG.
  uint32_t DelayMs(uint32_t retry, uint32_t server_hint_ms = 0) const;

 private:
  RetryPolicy policy_;
};

/// What QueryWithRetry did to get its answer.
struct RetryStats {
  uint32_t attempts = 0;           // tries made (>= 1)
  uint32_t busy_retries = 0;       // retries caused by kBusy
  uint32_t transport_retries = 0;  // retries caused by transport errors
  uint32_t reconnects = 0;         // successful reconnections
  uint64_t total_backoff_ms = 0;   // milliseconds slept between tries
  uint32_t last_queue_depth = 0;   // backlog reported by the last kBusy
};

class QueryClient {
 public:
  enum class RpcStatus {
    kOk,    // *response filled
    kBusy,  // admission pushback; retry_after_ms()/busy_queue_depth() set
    kDeadlineExceeded,  // server refused: the request's deadline ran out
    kRemoteError,       // server answered kError; last_error() has the text
    kTransportError,  // connection broken / protocol violation; client dead
  };

  QueryClient() = default;
  QueryClient(QueryClient&& other) noexcept = default;
  QueryClient& operator=(QueryClient&& other) noexcept = default;
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Connects to host:port; returns false (filling last_error()) on
  /// failure. Reconnecting an already-connected client closes the old
  /// connection first. The endpoint and options are remembered for
  /// Reconnect().
  bool Connect(const std::string& host, uint16_t port,
               const ClientOptions& options = {});

  /// Re-dials the endpoint of the last Connect().
  bool Reconnect();

  bool connected() const { return sock_.valid(); }

  /// Sends one request and blocks for its reply.
  RpcStatus Query(const QueryRequest& request, QueryResponse* response);

  /// Query() wrapped in `policy`: retries kBusy and transport errors
  /// (reconnecting first) with deterministic backoff;
  /// returns the first terminal status. kOk, kRemoteError, and
  /// kDeadlineExceeded never retry — the server answered.
  RpcStatus QueryWithRetry(const QueryRequest& request,
                           QueryResponse* response, const RetryPolicy& policy,
                           RetryStats* stats = nullptr);

  /// Sends one edit script and blocks for the kUpdateResponse. The server
  /// must be running with updates enabled (`qbs serve --updatable`);
  /// otherwise it answers kError and this returns kRemoteError. `stats`
  /// (optional) receives the server's apply counters. The served index is
  /// exact for the edited graph once this returns kOk.
  RpcStatus Update(const GraphDelta& delta, UpdateStats* stats = nullptr);

  /// Round-trips a kPing.
  bool Ping();

  /// Asks the server to shut down; true iff the kShutdownAck arrived.
  bool Shutdown();

  void Close();

  /// Hint from the last kBusy reply (milliseconds).
  uint32_t retry_after_ms() const { return retry_after_ms_; }
  /// Admission backlog reported by the last kBusy reply.
  uint32_t busy_queue_depth() const { return busy_queue_depth_; }
  const std::string& last_error() const { return last_error_; }
  /// Code from the last kError reply (meaningful after kRemoteError /
  /// kDeadlineExceeded).
  ErrorCode last_error_code() const { return last_error_code_; }

 private:
  /// Sends one frame and blocks for the next frame from the server.
  /// Returns false on transport failure (and closes the connection —
  /// framing can't be trusted afterwards).
  bool RoundTrip(FrameType type, std::span<const uint8_t> payload,
                 Frame* reply);
  bool SendFrame(FrameType type, std::span<const uint8_t> payload);
  bool ReadFrame(Frame* reply);

  Socket sock_;
  ClientOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  FrameReader reader_;
  uint32_t retry_after_ms_ = 0;
  uint32_t busy_queue_depth_ = 0;
  ErrorCode last_error_code_ = ErrorCode::kInternal;
  std::string last_error_;
};

}  // namespace qbs::server

#endif  // QBS_SERVER_CLIENT_H_
