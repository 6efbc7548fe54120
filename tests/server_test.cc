// End-to-end `qbs serve` daemon tests over real loopback sockets: protocol
// round trips, cached-vs-uncached bit-identity (the serving acceptance
// contract), admission backpressure, defensive handling of garbage bytes,
// and clean shutdown (no leaked threads/sockets — this whole binary runs
// under ASan/UBSan in CI).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/query_workload.h"
#include "workload/synthetic_workload.h"

namespace qbs::server {
namespace {

// A plain loopback TCP connection (no QBSP client), with a 10 s receive
// timeout so a missing response fails the test instead of hanging it.
// Returns -1 on failure.
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  timeval timeout{};
  timeout.tv_sec = 10;
  if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : g_(BarabasiAlbert(600, 3, 13)) {
    QbsOptions options;
    options.num_landmarks = 12;
    index_ = QbsIndex::Build(g_, options);
  }

  // Starts a server on an ephemeral loopback port.
  std::unique_ptr<QueryServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<QueryServer>(*index_, options);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
    return server;
  }

  QueryClient ConnectTo(const QueryServer& server) {
    QueryClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.last_error();
    return client;
  }

  Graph g_;
  std::optional<QbsIndex> index_;
};

TEST_F(ServerTest, AnswersMatchTheIndex) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  for (const auto& [u, v] : SampleQueryPairs(g_, 50, 7)) {
    QueryResponse response;
    ASSERT_EQ(client.Query(QueryRequest(u, v), &response),
              QueryClient::RpcStatus::kOk)
        << client.last_error();
    EXPECT_EQ(response.spg, index_->Query({u, v}).spg) << u << "," << v;
  }
}

TEST_F(ServerTest, CachedResponseIsBitIdenticalToUncached) {
  // The acceptance contract: asking twice must yield the same answer
  // payload, with only the cache_hit bit distinguishing the replay.
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  for (const auto& [u, v] : SampleQueryPairs(g_, 30, 8)) {
    const QueryRequest request(u, v);
    QueryResponse first, second;
    ASSERT_EQ(client.Query(request, &first), QueryClient::RpcStatus::kOk);
    ASSERT_EQ(client.Query(request, &second), QueryClient::RpcStatus::kOk);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_TRUE(SameAnswer(first, second)) << u << "," << v;
  }
  const auto stats = server->GetStats();
  EXPECT_EQ(stats.cache.hits, 30u);
  EXPECT_EQ(stats.queries, 60u);
}

TEST_F(ServerTest, NoCacheFlagBypassesTheCache) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  const QueryRequest request(1, 500, QueryMode::kSpg, 0, kQueryFlagNoCache);
  QueryResponse first, second;
  ASSERT_EQ(client.Query(request, &first), QueryClient::RpcStatus::kOk);
  ASSERT_EQ(client.Query(request, &second), QueryClient::RpcStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(server->GetStats().cache.hits, 0u);
}

TEST_F(ServerTest, DistanceModeOmitsEdges) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  QueryResponse response;
  ASSERT_EQ(client.Query(QueryRequest(2, 400, QueryMode::kDistance),
                         &response),
            QueryClient::RpcStatus::kOk);
  EXPECT_TRUE(response.spg.edges.empty());
  EXPECT_EQ(response.distance(), index_->Query({2, 400}).spg.distance);
}

TEST_F(ServerTest, VertexOutOfRangeIsARemoteErrorNotACrash) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  QueryResponse response;
  EXPECT_EQ(client.Query(QueryRequest(g_.NumVertices(), 0), &response),
            QueryClient::RpcStatus::kRemoteError);
  // The connection survives a rejected request.
  ASSERT_EQ(client.Query(QueryRequest(0, 1), &response),
            QueryClient::RpcStatus::kOk);
  EXPECT_EQ(server->GetStats().bad_requests, 1u);
}

TEST_F(ServerTest, GarbageBytesCloseTheConnectionWithoutCrashing) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  // Speak HTTP at the daemon through a raw socket.
  const int fd = ConnectRaw(server->port());
  ASSERT_GE(fd, 0);
  const char junk[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, 0), 0);
  // Server answers with an error frame and closes; drain until EOF.
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);

  // The daemon is still fully alive for well-behaved clients.
  QueryResponse response;
  ASSERT_EQ(client.Query(QueryRequest(0, 1), &response),
            QueryClient::RpcStatus::kOk);
  EXPECT_GE(server->GetStats().protocol_errors, 1u);
}

TEST_F(ServerTest, PingPong) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  EXPECT_TRUE(client.Ping());
}

TEST_F(ServerTest, RemoteShutdownStopsTheServer) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  ASSERT_TRUE(client.Shutdown());
  EXPECT_TRUE(server->WaitFor(5000));
  server->Stop();
}

TEST_F(ServerTest, RemoteShutdownCanBeDisallowed) {
  ServerOptions options;
  options.allow_remote_shutdown = false;
  auto server = StartServer(options);
  QueryClient client = ConnectTo(*server);
  EXPECT_FALSE(client.Shutdown());
  // Still serving.
  QueryResponse response;
  EXPECT_EQ(client.Query(QueryRequest(0, 1), &response),
            QueryClient::RpcStatus::kOk);
  EXPECT_FALSE(server->WaitFor(50));
}

TEST_F(ServerTest, ConcurrentClientsAllGetCorrectAnswers) {
  ServerOptions options;
  options.max_inflight = 4;
  auto server = StartServer(options);
  const auto pairs = SampleQueryPairs(g_, 120, 17);
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      if (!client.Connect("127.0.0.1", server->port())) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = c; i < pairs.size(); i += 2) {
        QueryResponse response;
        for (;;) {
          const auto status =
              client.Query(QueryRequest(pairs[i].u, pairs[i].v), &response);
          if (status == QueryClient::RpcStatus::kBusy) continue;  // retry
          if (status != QueryClient::RpcStatus::kOk) failures.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  // Spot-check correctness against the index after the fact.
  QueryClient client = ConnectTo(*server);
  for (size_t i = 0; i < 10; ++i) {
    QueryResponse response;
    ASSERT_EQ(client.Query(QueryRequest(pairs[i].u, pairs[i].v), &response),
              QueryClient::RpcStatus::kOk);
    EXPECT_EQ(response.spg, index_->Query({pairs[i].u, pairs[i].v}).spg);
  }
}

TEST_F(ServerTest, StopUnblocksAndJoinsEverything) {
  // Destroying a server with live connections must not hang or leak: the
  // fixture's ASan run is the leak assertion.
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  QueryResponse response;
  ASSERT_EQ(client.Query(QueryRequest(0, 1), &response),
            QueryClient::RpcStatus::kOk);
  server->Stop();  // connection is still open — Stop must shut it down
  EXPECT_NE(client.Query(QueryRequest(0, 1), &response),
            QueryClient::RpcStatus::kOk);
}

TEST(AdmissionGateTest, RejectsWhenQueueFull) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/0);
  ASSERT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  // No queue slots: the second caller bounces immediately.
  EXPECT_EQ(gate.Acquire(), AdmissionGate::Ticket::kRejected);
  EXPECT_EQ(gate.rejected(), 1u);
  gate.Release();
  EXPECT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  gate.Release();
}

TEST(AdmissionGateTest, QueuedCallerAdmittedAfterRelease) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/1);
  ASSERT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    if (gate.Acquire() == AdmissionGate::Ticket::kAdmitted) {
      admitted.store(true);
      gate.Release();
    }
  });
  // Give the waiter time to enqueue, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  gate.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionGateTest, ShutdownWakesWaiters) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(gate.Acquire(), AdmissionGate::Ticket::kShutdown);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Shutdown();
  waiter.join();
  EXPECT_EQ(gate.Acquire(), AdmissionGate::Ticket::kShutdown);
}

TEST(AdmissionGateTest, AcquireForZeroNeverQueues) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/8);
  ASSERT_EQ(gate.AcquireFor(0), AdmissionGate::Ticket::kAdmitted);
  // Queue has room, but a zero budget means admit-or-reject only.
  EXPECT_EQ(gate.AcquireFor(0), AdmissionGate::Ticket::kRejected);
  gate.Release();
}

TEST(AdmissionGateTest, AcquireForTimesOutWhenSlotNeverFrees) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  EXPECT_EQ(gate.AcquireFor(30), AdmissionGate::Ticket::kTimedOut);
  gate.Release();
  // The timed-out waiter left no residue: the slot is freely admissible.
  EXPECT_EQ(gate.AcquireFor(30), AdmissionGate::Ticket::kAdmitted);
  gate.Release();
}

TEST(AdmissionGateTest, RejectionReportsQueueDepth) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/1);
  ASSERT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(gate.Acquire(), AdmissionGate::Ticket::kAdmitted);
    gate.Release();
  });
  while (gate.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  size_t depth = 0;
  EXPECT_EQ(gate.AcquireFor(0, &depth), AdmissionGate::Ticket::kRejected);
  EXPECT_EQ(depth, 1u);  // the backlog a kBusy answer reports
  gate.Release();
  waiter.join();
}

TEST_F(ServerTest, DeadlineZeroIsAnsweredDeadlineExceededImmediately) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  QueryResponse response;
  QueryRequest request(1, 400);
  request.deadline_ms = 0;  // "already expired": must never execute
  EXPECT_EQ(client.Query(request, &response),
            QueryClient::RpcStatus::kDeadlineExceeded);
  EXPECT_EQ(client.last_error_code(), ErrorCode::kDeadlineExceeded);
  // The connection survives and the request was not executed or cached.
  const auto stats = server->GetStats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.queries, 0u);
  request.deadline_ms = kNoDeadline;
  ASSERT_EQ(client.Query(request, &response), QueryClient::RpcStatus::kOk);
  EXPECT_FALSE(response.cache_hit);
}

TEST_F(ServerTest, GenerousDeadlineAnswersIdenticallyToNoDeadline) {
  auto server = StartServer();
  QueryClient client = ConnectTo(*server);
  for (const auto& [u, v] : SampleQueryPairs(g_, 20, 21)) {
    QueryRequest no_deadline(u, v, QueryMode::kSpg, 0, kQueryFlagNoCache);
    QueryRequest generous = no_deadline;
    generous.deadline_ms = 60000;
    QueryResponse a, b;
    ASSERT_EQ(client.Query(no_deadline, &a), QueryClient::RpcStatus::kOk);
    ASSERT_EQ(client.Query(generous, &b), QueryClient::RpcStatus::kOk);
    EXPECT_TRUE(SameAnswer(a, b)) << u << "," << v;
  }
  EXPECT_EQ(server->GetStats().deadline_exceeded, 0u);
}

TEST_F(ServerTest, BusyResponseCarriesQueueDepth) {
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 1;
  // Every admitted query sleeps, so the slot and the one queue seat fill
  // up and stay full while the probe arrives.
  const FaultPlan plan([] {
    FaultSpec spec;
    spec.query_delay_rate = 1.0;
    spec.query_delay_ms = 400;
    return spec;
  }());
  options.fault_injector_factory = [&plan](uint64_t conn_id) {
    return plan.MakeInjector(conn_id);
  };
  auto server = StartServer(options);

  std::vector<std::thread> hogs;
  for (int i = 0; i < 2; ++i) {
    hogs.emplace_back([&, i] {
      QueryClient hog;
      if (!hog.Connect("127.0.0.1", server->port())) return;
      QueryResponse ignored;
      QueryRequest slow(1, 2 + i, QueryMode::kSpg, 0, kQueryFlagNoCache);
      hog.Query(slow, &ignored);
    });
  }
  // Wait until one hog is executing (sleeping in the injector) and the
  // other occupies the single queue seat — only then is kBusy guaranteed.
  for (;;) {
    const auto stats = server->GetStats();
    if (stats.admission_inflight >= 1 && stats.admission_queue_depth >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  QueryClient probe = ConnectTo(*server);
  QueryResponse response;
  QueryRequest request(5, 6, QueryMode::kSpg, 0, kQueryFlagNoCache);
  EXPECT_EQ(probe.Query(request, &response), QueryClient::RpcStatus::kBusy);
  EXPECT_EQ(probe.busy_queue_depth(), 1u);  // the queued hog
  for (auto& h : hogs) h.join();
  server->Stop();
}

// Reads frames from a raw socket until `count` have arrived (or the
// receive times out / the peer closes, leaving fewer).
std::vector<Frame> ReadFrames(int fd, size_t count) {
  FrameReader reader;
  std::vector<Frame> frames;
  uint8_t buf[4096];
  while (frames.size() < count) {
    Frame frame;
    if (reader.Next(&frame) == FrameReader::Status::kFrame) {
      frames.push_back(std::move(frame));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reader.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
  return frames;
}

// Pipelined frames on a saturated server: every frame written in one send
// gets exactly one response, in arrival order, whether it was answered from
// the labelling (degraded), exactly (u == v, certified distance), or with
// an error or a pong.
TEST_F(ServerTest, PipelinedFramesOnSaturatedServerAnswerInOrder) {
  ServerOptions options;
  options.degrade_after_inflight = 1;
  const FaultPlan plan([] {
    FaultSpec spec;
    spec.query_delay_rate = 1.0;
    spec.query_delay_ms = 400;
    return spec;
  }());
  options.fault_injector_factory = [&plan](uint64_t conn_id) {
    return plan.MakeInjector(conn_id);
  };
  auto server = StartServer(options);

  // The hog holds the one inflight slot the threshold allows. A jthread,
  // so a failed ASSERT below still joins it.
  std::jthread hog([&] {
    QueryClient client;
    if (!client.Connect("127.0.0.1", server->port())) return;
    QueryResponse ignored;
    client.Query(QueryRequest(1, 2, QueryMode::kSpg, 0, kQueryFlagNoCache),
                 &ignored);
  });
  while (server->GetStats().admission_inflight < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::vector<QueryPair> pairs;
  for (const QueryPair& p : SampleQueryPairs(g_, 20, 31)) {
    if (p.u != p.v) pairs.push_back(p);
  }
  ASSERT_GE(pairs.size(), 5u);
  // One slot per frame; nullopt is a ping.
  const VertexId n = g_.NumVertices();
  const std::vector<std::optional<QueryRequest>> slots = {
      QueryRequest(pairs[0].u, pairs[0].v),
      QueryRequest(pairs[1].u, pairs[1].v),
      QueryRequest(pairs[2].u, pairs[2].v),
      std::nullopt,
      QueryRequest(pairs[0].u, pairs[0].v),  // repeated pair
      QueryRequest(7, 7),                    // u == v
      QueryRequest(n, 0),                    // out of range
      QueryRequest(pairs[3].u, pairs[3].v),
      QueryRequest(pairs[4].u, pairs[4].v, QueryMode::kDistance),
      QueryRequest(7, 7),  // u == v again: a cache hit this time
  };
  std::vector<uint8_t> wire;
  for (const auto& slot : slots) {
    if (slot.has_value()) {
      AppendFrame(&wire, FrameType::kQueryRequest, EncodeQueryRequest(*slot));
    } else {
      AppendFrame(&wire, FrameType::kPing, {});
    }
  }

  const int fd = ConnectRaw(server->port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<Frame> frames = ReadFrames(fd, slots.size());
  ASSERT_EQ(frames.size(), slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    if (!slots[i].has_value()) {
      EXPECT_EQ(frames[i].type, FrameType::kPong);
      continue;
    }
    const QueryRequest& request = *slots[i];
    if (request.u >= n) {
      ASSERT_EQ(frames[i].type, FrameType::kError);
      ErrorCode code;
      std::string message;
      ASSERT_TRUE(DecodeError(frames[i].payload, &code, &message));
      EXPECT_EQ(code, ErrorCode::kVertexOutOfRange);
      continue;
    }
    ASSERT_EQ(frames[i].type, FrameType::kQueryResponse);
    QueryResponse response;
    ASSERT_TRUE(DecodeQueryResponse(frames[i].payload, &response));
    EXPECT_EQ(response.spg.u, request.u);
    EXPECT_EQ(response.spg.v, request.v);
    const uint32_t d = BfsDistances(g_, request.u)[request.v];
    if (response.degraded()) {
      EXPECT_LE(response.degraded_lower, d);
      EXPECT_LE(d, response.distance());
    } else {
      EXPECT_EQ(response.distance(), d);
    }
  }
  EXPECT_GE(server->GetStats().degraded, 1u);

  // The connection still answers afterwards.
  std::vector<uint8_t> more;
  AppendFrame(&more, FrameType::kPing, {});
  AppendFrame(&more, FrameType::kQueryRequest,
              EncodeQueryRequest(QueryRequest(pairs[1].u, pairs[1].v)));
  ASSERT_EQ(::send(fd, more.data(), more.size(), 0),
            static_cast<ssize_t>(more.size()));
  const std::vector<Frame> after = ReadFrames(fd, 2);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].type, FrameType::kPong);
  EXPECT_EQ(after[1].type, FrameType::kQueryResponse);
  ::close(fd);
  hog.join();
  server->Stop();
}

TEST_F(ServerTest, ServedWorkloadHitRateIsDeterministic) {
  // Same seed, fresh server, single connection => exactly the same
  // hit-rate (the workload and the LRU are both deterministic).
  WorkloadOptions workload;
  workload.num_queries = 800;
  workload.num_distinct_pairs = 60;
  workload.zipf_s = 1.0;
  workload.seed = 99;
  const auto queries = GenerateWorkload(g_, workload);

  const auto run_once = [&]() -> uint64_t {
    auto server = StartServer();
    QueryClient client = ConnectTo(*server);
    uint64_t hits = 0;
    for (const auto& q : queries) {
      QueryResponse response;
      EXPECT_EQ(client.Query(q.request, &response),
                QueryClient::RpcStatus::kOk);
      hits += response.cache_hit ? 1 : 0;
    }
    return hits;
  };
  const uint64_t first = run_once();
  const uint64_t second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
}

}  // namespace
}  // namespace qbs::server
