// Deterministic fault injection for the serving stack.
//
// A FaultInjector built from (FaultSpec, endpoint id) answers each
// operation with a pure function of (spec, endpoint id, operation index):
// build two injectors from the same spec and endpoint and ask them the
// same sequence of questions, and you get the same sequence of answers —
// which is what makes a faulted run replayable from its plan's name in an
// oracle driver replay line. The spec covers every failure class the
// serving stack must survive:
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
// Injectors hook the Socket layer (server/socket.h); production builds
// simply never install one, so the hot path pays one null-pointer test per
// syscall.

#ifndef QBS_SERVER_FAULT_INJECTION_H_
#define QBS_SERVER_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>

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

/// Hook consulted by Socket before each send/recv syscall and by the
/// server before executing an admitted query. Endpoint ids are
/// caller-chosen (the server uses its connection counter, tests use a
/// fixed id per client); every decision is a pure function of
/// (spec.seed, endpoint id, op index), so interleaving with other
/// endpoints cannot perturb this endpoint's fault stream. Used from the one
/// thread driving the socket; no internal locking.
class FaultInjector {
 public:
  FaultInjector(const FaultSpec& spec, uint64_t endpoint_id);

  /// Consulted before sending `bytes` (the remaining unsent tail).
  IoFault OnSend(size_t bytes);
  /// Consulted before a recv of up to `bytes`.
  IoFault OnRecv(size_t bytes);
  /// Artificial slowness for the next admitted query, in milliseconds
  /// (0 = execute immediately). Server-side injectors only.
  uint32_t OnQueryDelayMs();

 private:
  /// One 64-bit draw per op; independent fault classes consume disjoint
  /// 16-bit lanes of it so rates compose without reordering the stream.
  uint64_t Draw(uint64_t op) const;

  const FaultSpec spec_;
  const uint64_t stream_;
  uint64_t ops_ = 0;
  uint64_t query_ops_ = 0;
  bool reset_next_ = false;  // a torn frame resets the next op
};

}  // namespace qbs::server

#endif  // QBS_SERVER_FAULT_INJECTION_H_
