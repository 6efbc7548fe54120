// Socket timeout contract over a loopback TCP pair: a receive is one
// blocking recv whose timeout the kernel enforces (SO_RCVTIMEO, remembered
// per socket and re-set only when it changes), a zero timeout never blocks,
// a shutdown from another thread wakes an unbounded reader, and a send into
// a peer that never drains gives up within its budget.

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

}  // namespace
}  // namespace qbs::server
