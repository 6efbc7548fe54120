// Socket timeout contract over a loopback TCP pair: a receive is one
// blocking recv whose timeout the kernel enforces (SO_RCVTIMEO, remembered
// per socket and re-set only when it changes), a zero timeout never blocks,
// a shutdown from another thread wakes an unbounded reader, and a send into
// a peer that never drains gives up within its budget. The FaultInjector
// that a socket consults before each operation decides by (seed, endpoint,
// op index) alone, so a faulted run replays from its FaultSpec.

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/fault_injection.h"
#include "server/socket.h"

namespace qbs::server {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int32_t kShortMs = 30;

int64_t MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

// Both ends of one loopback TCP connection.
struct LoopbackPair {
  Socket client;
  Socket server;
};

LoopbackPair Connect() {
  ListenSocket listener;
  std::string error;
  EXPECT_TRUE(listener.Open("127.0.0.1", 0, &error)) << error;
  LoopbackPair pair;
  pair.client = Socket::ConnectTcp("127.0.0.1", listener.bound_port(), &error);
  EXPECT_TRUE(pair.client.valid()) << error;
  pair.server = Socket(listener.Accept());
  EXPECT_TRUE(pair.server.valid());
  return pair;
}

// Receives with `timeout_ms`; returns the status and sets *elapsed_ms.
IoStatus TimedRecv(Socket& sock, int32_t timeout_ms, int64_t* elapsed_ms) {
  uint8_t buf[64];
  size_t n = 0;
  const auto start = Clock::now();
  const IoStatus status = sock.RecvSome(buf, sizeof(buf), &n, timeout_ms);
  *elapsed_ms = MsSince(start);
  return status;
}

// Expects RecvSome(kShortMs) on an empty socket to time out after at least
// kShortMs and well under a second.
void ExpectShortTimeout(Socket& sock) {
  int64_t elapsed = 0;
  EXPECT_EQ(TimedRecv(sock, kShortMs, &elapsed), IoStatus::kTimeout);
  EXPECT_GE(elapsed, kShortMs);
  EXPECT_LT(elapsed, 1000);
}

// Expects RecvSome(timeout_ms), an unbounded timeout, to outwait several
// kShortMs and return the byte `peer` sends after 150 ms.
void ExpectUnboundedWait(Socket& sock, Socket& peer,
                         int32_t timeout_ms = kNoTimeout) {
  std::thread writer([&peer, timeout_ms] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const uint8_t byte = 7;
    EXPECT_EQ(peer.SendAll({&byte, 1}, timeout_ms), IoStatus::kOk);
  });
  int64_t elapsed = 0;
  EXPECT_EQ(TimedRecv(sock, timeout_ms, &elapsed), IoStatus::kOk);
  EXPECT_GE(elapsed, 100);
  writer.join();
}

TEST(ClampTimeoutMsTest, SaturatesInsteadOfWrapping) {
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(ClampTimeoutMs(0), 0);
  EXPECT_EQ(ClampTimeoutMs(kMax), kMax);
  EXPECT_EQ(ClampTimeoutMs(kMax + 1), kMax);
  EXPECT_EQ(ClampTimeoutMs(std::numeric_limits<uint32_t>::max()), kMax);
  EXPECT_EQ(ClampTimeoutMs(-5), 0);
}

TEST(SocketTest, ZeroTimeoutNeverBlocks) {
  LoopbackPair pair = Connect();
  // Leave a long SO_RCVTIMEO behind: the zero-timeout call must not use it.
  const uint8_t byte = 1;
  ASSERT_EQ(pair.client.SendAll({&byte, 1}, kNoTimeout), IoStatus::kOk);
  int64_t elapsed = 0;
  ASSERT_EQ(TimedRecv(pair.server, 5000, &elapsed), IoStatus::kOk);

  EXPECT_EQ(TimedRecv(pair.server, 0, &elapsed), IoStatus::kTimeout);
  EXPECT_LT(elapsed, 500);
}

TEST(SocketTest, BoundedRecvTimesOut) {
  LoopbackPair pair = Connect();
  ExpectShortTimeout(pair.server);
}

TEST(SocketTest, NegativeTimeoutMeansNoTimeout) {
  LoopbackPair pair = Connect();
  // An adopted fd may carry any SO_RCVTIMEO; a negative timeout must still
  // wait without bound.
  timeval short_timeout{};
  short_timeout.tv_usec = kShortMs * 1000;
  ASSERT_EQ(::setsockopt(pair.server.fd(), SOL_SOCKET, SO_RCVTIMEO,
                         &short_timeout, sizeof(short_timeout)),
            0);
  ExpectUnboundedWait(pair.server, pair.client, -2);
  ExpectUnboundedWait(pair.server, pair.client, -1000);
}

TEST(SocketTest, RememberedTimeoutFollowsEachCall) {
  LoopbackPair pair = Connect();
  ExpectShortTimeout(pair.server);
  ExpectUnboundedWait(pair.server, pair.client);
  ExpectShortTimeout(pair.server);
  ExpectShortTimeout(pair.server);  // unchanged: no setsockopt, same bound
}

TEST(SocketTest, MovedSocketKeepsItsRememberedTimeout) {
  LoopbackPair first = Connect();
  LoopbackPair second = Connect();
  // first.server's fd blocks forever; second.server's fd times out.
  const uint8_t byte = 1;
  ASSERT_EQ(first.client.SendAll({&byte, 1}, kNoTimeout), IoStatus::kOk);
  int64_t elapsed = 0;
  ASSERT_EQ(TimedRecv(first.server, kNoTimeout, &elapsed), IoStatus::kOk);
  ExpectShortTimeout(second.server);

  // Move-assign the unbounded fd over a socket that remembers kShortMs: a
  // stale memory would skip the setsockopt and block. The late write only
  // rescues a broken build from hanging.
  Socket moved = std::move(second.server);
  moved = std::move(first.server);
  std::thread rescue([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    const uint8_t late = 2;
    first.client.SendAll({&late, 1}, kNoTimeout);
  });
  ExpectShortTimeout(moved);
  rescue.join();
  ASSERT_EQ(TimedRecv(moved, 0, &elapsed), IoStatus::kOk);  // drain `late`

  // Move-construct: the new owner must know the fd now times out.
  Socket constructed(std::move(moved));
  ExpectUnboundedWait(constructed, first.client);
  ExpectShortTimeout(constructed);
}

TEST(SocketTest, ShutdownWakesAnUnboundedReader) {
  LoopbackPair pair = Connect();
  IoStatus status = IoStatus::kOk;
  std::thread reader([&pair, &status] {
    int64_t elapsed = 0;
    status = TimedRecv(pair.server, kNoTimeout, &elapsed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ShutdownFd(pair.server.fd());
  reader.join();
  EXPECT_EQ(status, IoStatus::kClosed);
}

TEST(SocketTest, SendIntoAnUndrainedPeerTimesOutWithinItsBudget) {
  LoopbackPair pair = Connect();
  // Small kernel buffers so a few MiB are certain to fill them.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  ASSERT_EQ(::setsockopt(pair.server.fd(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  const std::vector<uint8_t> data(8 << 20, 0xab);
  constexpr int32_t kBudgetMs = 200;
  const auto start = Clock::now();
  EXPECT_EQ(pair.client.SendAll(data, kBudgetMs), IoStatus::kTimeout);
  const int64_t elapsed = MsSince(start);
  EXPECT_GE(elapsed, kBudgetMs);
  EXPECT_LT(elapsed, kBudgetMs + 1000);
}

struct FaultTrace {
  std::vector<uint8_t> kinds;
  std::vector<size_t> caps;
  std::vector<uint32_t> delays;

  friend bool operator==(const FaultTrace&, const FaultTrace&) = default;
};

// Records the injector's decisions over a fixed op sequence WITHOUT
// executing them (stalls would otherwise sleep for real).
FaultTrace TraceInjector(FaultInjector& injector, size_t ops) {
  FaultTrace trace;
  for (size_t i = 0; i < ops; ++i) {
    const IoFault fault =
        i % 2 == 0 ? injector.OnSend(4096) : injector.OnRecv(4096);
    trace.kinds.push_back(static_cast<uint8_t>(fault.kind));
    trace.caps.push_back(fault.cap);
    trace.delays.push_back(injector.OnQueryDelayMs());
  }
  return trace;
}

TEST(FaultPlanTest, SameSeedSameEndpointReplaysIdentically) {
  FaultSpec spec;
  spec.seed = 0xC0FFEEull;
  spec.short_send_rate = 0.3;
  spec.short_recv_rate = 0.3;
  spec.stall_rate = 0.2;
  spec.reset_rate = 0.05;
  spec.torn_frame_rate = 0.1;
  spec.query_delay_rate = 0.5;
  spec.query_delay_ms = 7;

  for (const uint64_t endpoint : {0ull, 1ull, 42ull}) {
    FaultInjector ia(spec, endpoint);
    FaultInjector ib(spec, endpoint);
    EXPECT_EQ(TraceInjector(ia, 512), TraceInjector(ib, 512))
        << "endpoint " << endpoint;
  }
}

TEST(FaultPlanTest, DifferentSeedsOrEndpointsDiverge) {
  FaultSpec spec;
  spec.seed = 1;
  spec.short_send_rate = 0.5;
  spec.stall_rate = 0.25;
  FaultSpec other = spec;
  other.seed = 2;

  FaultInjector base(spec, 0);
  FaultInjector reseeded(other, 0);
  FaultInjector shifted(spec, 1);
  const FaultTrace base_trace = TraceInjector(base, 512);
  EXPECT_NE(base_trace, TraceInjector(reseeded, 512));
  EXPECT_NE(base_trace, TraceInjector(shifted, 512));
}

TEST(FaultPlanTest, ScriptedResetFiresExactlyOnce) {
  FaultSpec spec;
  spec.reset_at_op = 3;
  FaultInjector injector(spec, 0);
  size_t resets = 0;
  for (size_t op = 1; op <= 16; ++op) {
    const IoFault fault = injector.OnSend(64);
    if (fault.kind == IoFault::Kind::kReset) {
      EXPECT_EQ(op, 3u);
      ++resets;
    }
  }
  EXPECT_EQ(resets, 1u);
}

}  // namespace
}  // namespace qbs::server
