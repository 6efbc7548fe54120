#include "server/fault_injection.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace qbs::server {
namespace {

/// True iff `draw`'s 16-bit `lane` falls under `rate`.
bool Hit(uint64_t draw, unsigned lane, double rate) {
  if (rate <= 0.0) return false;
  const auto lane_bits = static_cast<uint32_t>((draw >> (16 * lane)) & 0xFFFFu);
  return static_cast<double>(lane_bits) < rate * 65536.0;
}

IoFault Reset() { return {.kind = IoFault::Kind::kReset}; }

}  // namespace

FaultInjector::FaultInjector(const FaultSpec& spec, uint64_t endpoint_id)
    : spec_(spec),
      stream_(SplitMix64(spec.seed) ^ SplitMix64(~endpoint_id)) {}

IoFault FaultInjector::OnSend(size_t bytes) {
  const uint64_t op = ++ops_;
  if (std::exchange(reset_next_, false)) return Reset();  // torn frame
  const uint64_t r = Draw(op);
  if (spec_.reset_at_op != 0 && op == spec_.reset_at_op) return Reset();
  if (Hit(r, 0, spec_.reset_rate)) return Reset();
  if (Hit(r, 1, spec_.torn_frame_rate) && bytes > 1) {
    // Half the frame now; the next op (the resumed tail) resets, so the
    // peer sees a syntactically torn frame.
    reset_next_ = true;
    return {.kind = IoFault::Kind::kShort, .cap = bytes / 2};
  }
  if (Hit(r, 2, spec_.short_send_rate) && bytes > 1) {
    return {.kind = IoFault::Kind::kShort, .cap = (bytes + 1) / 2};
  }
  if (Hit(r, 3, spec_.stall_rate)) {
    return {.kind = IoFault::Kind::kStall, .stall_ms = spec_.stall_ms};
  }
  return {};
}

IoFault FaultInjector::OnRecv(size_t bytes) {
  const uint64_t op = ++ops_;
  if (std::exchange(reset_next_, false)) return Reset();  // torn frame
  const uint64_t r = Draw(op);
  if (spec_.reset_at_op != 0 && op == spec_.reset_at_op) return Reset();
  if (Hit(r, 0, spec_.reset_rate)) return Reset();
  if (Hit(r, 2, spec_.short_recv_rate) && bytes > 1) {
    // A few bytes per read maximizes partial-frame reassembly coverage.
    return {.kind = IoFault::Kind::kShort,
            .cap = std::max<size_t>(1, std::min<size_t>(bytes, 3))};
  }
  if (Hit(r, 3, spec_.stall_rate)) {
    return {.kind = IoFault::Kind::kStall, .stall_ms = spec_.stall_ms};
  }
  return {};
}

uint32_t FaultInjector::OnQueryDelayMs() {
  const uint64_t op = ++query_ops_;
  if (spec_.query_delay_rate <= 0.0 || spec_.query_delay_ms == 0) return 0;
  const uint64_t r = SplitMix64(stream_ ^ SplitMix64(op ^ 0x71c7u));
  return Hit(r, 0, spec_.query_delay_rate) ? spec_.query_delay_ms : 0;
}

uint64_t FaultInjector::Draw(uint64_t op) const {
  return SplitMix64(stream_ ^ SplitMix64(op));
}

}  // namespace qbs::server
