// Deterministic fault injection for the serving stack.
//
// A FaultPlan is a pure function from (FaultSpec, endpoint id, operation
// index) to a fault decision: feed the same spec to two plans and ask the
// same endpoint's injector the same sequence of questions, and you get the
// same sequence of answers — which is what makes a chaos run replayable
// and a failure bisectable by seed. The plan covers every failure class
// the serving stack must survive:
//
//   * short reads / short writes  — an op is capped below the requested
//     size, exercising every partial-I/O resume loop;
//   * stalls                      — an op is delayed, exercising the
//     kernel-enforced read timeouts, the bounded send wait and the idle
//     reaper;
//   * connection resets           — an op fails as if the peer vanished,
//     exercising reconnect/retry paths;
//   * torn frames                 — a write is cut short and the NEXT op
//     resets, so the peer observes a syntactically truncated frame;
//   * query slowness              — the server sleeps before executing an
//     admitted query, exercising deadlines, admission queueing, and the
//     graceful-degradation path.
//
// Injectors hook the Socket layer (server/socket.h) through the
// FaultInjector interface; production builds simply never install one, so
// the hot path pays one null-pointer test per syscall.

#ifndef QBS_SERVER_FAULT_INJECTION_H_
#define QBS_SERVER_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace qbs::server {

/// One injected fault on a socket operation.
struct IoFault {
  enum class Kind : uint8_t {
    kNone,   // let the operation through untouched
    kShort,  // cap the operation at `cap` bytes (partial read/write)
    kStall,  // sleep stall_ms, then let the operation through
    kReset,  // fail the operation as if the peer reset the connection
  };
  Kind kind = Kind::kNone;
  size_t cap = 0;
  uint32_t stall_ms = 0;
};

/// Hook consulted by Socket before each send/recv syscall and by the
/// server before executing an admitted query. Implementations must be
/// usable from the one thread driving the socket (no internal locking is
/// required of them).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Consulted before sending `bytes` (the remaining unsent tail).
  virtual IoFault OnSend(size_t bytes) = 0;
  /// Consulted before a recv of up to `bytes`.
  virtual IoFault OnRecv(size_t bytes) = 0;
  /// Artificial slowness for the next admitted query, in milliseconds
  /// (0 = execute immediately). Server-side injectors only.
  virtual uint32_t OnQueryDelayMs() = 0;
};

/// The scripted fault schedule. All rates are probabilities in [0, 1]
/// drawn per operation from the seeded stream; the scripted `reset_at_op`
/// fires exactly once at the 1-based operation index (sends and recvs
/// share one counter per endpoint), which is how a test tears a frame at
/// a known point.
struct FaultSpec {
  uint64_t seed = 1;

  double short_send_rate = 0.0;  // cap a send at half the requested bytes
  double short_recv_rate = 0.0;  // cap a recv at a few bytes
  double stall_rate = 0.0;       // delay an op by stall_ms
  uint32_t stall_ms = 5;
  double reset_rate = 0.0;  // kill the connection at this op
  /// Tear a frame: cut this send short, then reset on the next op.
  double torn_frame_rate = 0.0;
  /// Scripted reset at exactly this 1-based op index (0 = disabled).
  uint64_t reset_at_op = 0;

  double query_delay_rate = 0.0;  // server-side artificial slowness
  uint32_t query_delay_ms = 0;

  bool HasIoFaults() const {
    return short_send_rate > 0 || short_recv_rate > 0 || stall_rate > 0 ||
           reset_rate > 0 || torn_frame_rate > 0 || reset_at_op > 0;
  }
};

/// Factory for per-endpoint deterministic injectors. Endpoint ids are
/// caller-chosen (the server uses its connection counter, tests use a
/// fixed id per client); the injector for (spec, endpoint) always answers
/// the same op sequence identically.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultSpec& spec) : spec_(spec) {}

  std::unique_ptr<FaultInjector> MakeInjector(uint64_t endpoint_id) const;

  const FaultSpec& spec() const { return spec_; }

 private:
  FaultSpec spec_;
};

}  // namespace qbs::server

#endif  // QBS_SERVER_FAULT_INJECTION_H_
