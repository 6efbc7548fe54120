// Chaos suite: seeded fault plans driven through REAL loopback connections
// against the `qbs serve` daemon. The contract asserted for every plan:
//
//   * no hangs   — every client wait is poll-bounded (and the whole binary
//                  runs under a ctest timeout);
//   * no crashes — the server survives every plan and still answers a
//                  clean probe afterwards;
//   * every query either matches the fault-free answer bit-for-bit
//     (SameAnswer) or fails TYPED: kBusy, kDeadlineExceeded, a degraded
//     answer whose bounds bracket the true distance, or a transport error
//     after which the client can reconnect. Silent wrong answers are the
//     one outcome chaos must never produce.
//
// Fault decisions are pure functions of (seed, endpoint, op index) — the
// FaultPlanTest cases lock that in — so any failing plan replays exactly
// from its FaultSpec.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "server/client.h"
#include "server/fault_injection.h"
#include "server/server.h"
#include "workload/query_workload.h"

namespace qbs::server {
namespace {

// ---- Injector determinism ------------------------------------------------

struct FaultTrace {
  std::vector<uint8_t> kinds;
  std::vector<size_t> caps;
  std::vector<uint32_t> delays;

  friend bool operator==(const FaultTrace& a, const FaultTrace& b) {
    return a.kinds == b.kinds && a.caps == b.caps && a.delays == b.delays;
  }
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

// ---- Loopback chaos plans -------------------------------------------------

struct ChaosPlan {
  const char* name;
  FaultSpec client{};       // faults on the client's socket
  FaultSpec server{};       // faults on every server connection socket
  uint32_t deadline_ms = kNoDeadline;
  size_t max_inflight = 4;
  size_t degrade_after_inflight = 0;
  size_t num_queries = 60;
};

FaultSpec ClientShortReads(uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.short_recv_rate = 0.8;
  return s;
}

FaultSpec ClientShortWritesAndStalls(uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.short_send_rate = 0.8;
  s.stall_rate = 0.15;
  s.stall_ms = 2;
  return s;
}

FaultSpec TornFrames(uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.torn_frame_rate = 0.2;
  return s;
}

FaultSpec Resets(uint64_t seed, double rate) {
  FaultSpec s;
  s.seed = seed;
  s.reset_rate = rate;
  return s;
}

FaultSpec ServerShortWritesAndStalls(uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.short_send_rate = 0.7;
  s.stall_rate = 0.1;
  s.stall_ms = 2;
  return s;
}

FaultSpec SlowQueries(uint64_t seed, uint32_t delay_ms, double rate) {
  FaultSpec s;
  s.seed = seed;
  s.query_delay_rate = rate;
  s.query_delay_ms = delay_ms;
  return s;
}

FaultSpec Combined(uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.short_send_rate = 0.3;
  s.short_recv_rate = 0.3;
  s.stall_rate = 0.1;
  s.stall_ms = 2;
  s.reset_rate = 0.02;
  s.torn_frame_rate = 0.05;
  return s;
}

std::vector<ChaosPlan> Plans() {
  std::vector<ChaosPlan> plans;
  // 1. Client reads arrive in tiny chunks: FrameReader reassembly.
  plans.push_back({.name = "client-short-reads",
                   .client = ClientShortReads(11)});
  // 2. Client writes fragment and stall: server-side frame reassembly
  //    under its read timeout.
  plans.push_back({.name = "client-short-writes-stalls",
                   .client = ClientShortWritesAndStalls(22)});
  // 3. Client tears frames mid-request; the server must drop the torn
  //    stream, the client must reconnect.
  plans.push_back({.name = "client-torn-frames",
                   .client = TornFrames(33)});
  // 4. Client-side random resets: reconnect/retry discipline.
  plans.push_back({.name = "client-resets",
                   .client = Resets(44, 0.04)});
  // 5. Server responses fragment and stall: client-side reassembly.
  plans.push_back({.name = "server-short-writes-stalls",
                   .server = ServerShortWritesAndStalls(55)});
  // 6. Server-side resets: every query either answers or fails typed.
  plans.push_back({.name = "server-resets",
                   .server = Resets(66, 0.04)});
  // 7. Slow queries + tight deadlines: kDeadlineExceeded, never a late
  //    execution, never a hang.
  plans.push_back({.name = "slow-queries-tight-deadline",
                   .server = SlowQueries(77, 30, 0.5),
                   .deadline_ms = 10,
                   .max_inflight = 2});
  // 8. Saturation + degradation: slow queries hold every slot, the
  //    overflow is answered with label bounds instead of queueing.
  plans.push_back({.name = "saturation-degrades",
                   .server = SlowQueries(88, 15, 1.0),
                   .max_inflight = 1,
                   .degrade_after_inflight = 1});
  // 9. Everything at once, two seeds: the kitchen sink must still never
  //    produce a silent wrong answer.
  plans.push_back({.name = "combined-a",
                   .client = Combined(99),
                   .server = Combined(100)});
  plans.push_back({.name = "combined-b",
                   .client = Combined(101),
                   .server = Combined(102),
                   .deadline_ms = 2000});
  return plans;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() : g_(BarabasiAlbert(500, 3, 17)) {
    QbsOptions options;
    options.num_landmarks = 10;
    index_ = QbsIndex::Build(g_, options);
  }

  Graph g_;
  std::optional<QbsIndex> index_;
};

TEST_F(ChaosTest, EveryPlanYieldsExactAnswersOrTypedErrors) {
  const std::vector<QueryPair> pairs = SampleQueryPairs(g_, 60, 5);

  // Fault-free ground truth, computed directly against the index (no
  // sockets involved).
  std::vector<QueryResponse> expected;
  for (const auto& [u, v] : pairs) expected.push_back(index_->Query({u, v}));

  size_t plans_run = 0;
  for (const ChaosPlan& plan : Plans()) {
    SCOPED_TRACE(plan.name);
    ++plans_run;

    ServerOptions options;
    options.max_inflight = plan.max_inflight;
    options.degrade_after_inflight = plan.degrade_after_inflight;
    options.read_timeout_ms = 1000;
    options.idle_timeout_ms = 10000;
    options.write_timeout_ms = 2000;
    // Connection ids count every connection the server accepted, so which
    // fault stream a late connection draws depends on how many reconnects
    // the faulted loop took, which timing decides. The post-plan probe
    // therefore connects with the server's faults switched off.
    std::atomic<bool> server_faults{true};
    if (plan.server.HasIoFaults() || plan.server.query_delay_rate > 0) {
      options.fault_injector_factory = [&](uint64_t conn_id) {
        return server_faults.load()
                   ? std::make_unique<FaultInjector>(plan.server, conn_id)
                   : nullptr;
      };
    }
    QueryServer server(*index_, options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    std::unique_ptr<FaultInjector> client_injector;
    ClientOptions client_options;
    client_options.read_timeout_ms = 3000;
    client_options.write_timeout_ms = 3000;
    if (plan.client.HasIoFaults()) {
      client_injector =
          std::make_unique<FaultInjector>(plan.client, /*endpoint_id=*/1);
      client_options.fault_injector = client_injector.get();
    }

    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), client_options))
        << client.last_error();

    // Saturation plans need a competing connection actually holding the
    // inflight slots (a single sequential client never observes its own
    // concurrency): a hog loops slow no-cache queries until the plan ends.
    std::atomic<bool> hog_stop{false};
    std::thread hog;
    if (plan.degrade_after_inflight > 0) {
      hog = std::thread([&] {
        QueryClient hog_client;
        ClientOptions hog_options;
        hog_options.read_timeout_ms = 3000;
        if (!hog_client.Connect("127.0.0.1", server.port(), hog_options)) {
          return;
        }
        while (!hog_stop.load()) {
          QueryResponse ignored;
          QueryRequest slow(pairs[1].u, pairs[1].v);
          slow.flags = kQueryFlagNoCache;
          if (hog_client.Query(slow, &ignored) ==
              QueryClient::RpcStatus::kTransportError) {
            return;
          }
        }
      });
      // Let the hog occupy the slot before the first measured query: wait,
      // for at most 5 s, until the server counts its query in flight.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (server.GetStats().admission_inflight < 1 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }

    size_t ok = 0, degraded = 0, busy = 0, deadline = 0, transport = 0;
    for (size_t i = 0; i < plan.num_queries; ++i) {
      const QueryPair& pair = pairs[i % pairs.size()];
      QueryRequest request(pair.u, pair.v);
      request.deadline_ms = plan.deadline_ms;
      // No-cache keeps every request on the execute path, so server-side
      // faults (slowness, degradation) actually engage each time.
      request.flags = kQueryFlagNoCache;
      QueryResponse response;
      const auto status = client.Query(request, &response);
      switch (status) {
        case QueryClient::RpcStatus::kOk: {
          const QueryResponse& truth = expected[i % pairs.size()];
          if (response.degraded()) {
            ++degraded;
            // Degraded answers must bracket the true distance:
            // lower <= d <= upper (upper == kUnreachable means the labels
            // certified nothing above).
            EXPECT_LE(response.degraded_lower, truth.spg.distance);
            EXPECT_GE(response.spg.distance, truth.spg.distance);
            EXPECT_TRUE(response.spg.edges.empty());
            EXPECT_FALSE(response.cache_hit);
          } else {
            ++ok;
            // The headline chaos assertion: an undegraded success is
            // bit-identical to the fault-free answer.
            EXPECT_TRUE(SameAnswer(response, truth))
                << "pair (" << pair.u << "," << pair.v << ")";
          }
          break;
        }
        case QueryClient::RpcStatus::kBusy:
          ++busy;
          break;
        case QueryClient::RpcStatus::kDeadlineExceeded:
          ++deadline;
          break;
        case QueryClient::RpcStatus::kRemoteError:
          // Typed, but nothing in these plans should provoke one: the
          // requests are all well-formed and in range.
          ADD_FAILURE() << "unexpected remote error: "
                        << client.last_error();
          break;
        case QueryClient::RpcStatus::kTransportError: {
          ++transport;
          // Typed connection error: the client must be able to come back.
          ASSERT_TRUE(client.Reconnect()) << client.last_error();
          break;
        }
      }
    }

    hog_stop.store(true);
    if (hog.joinable()) hog.join();

    // The plan must have produced SOME terminal outcomes, and the server
    // must still be alive and exact afterwards.
    EXPECT_EQ(ok + degraded + busy + deadline + transport,
              plan.num_queries);
    if (!client.connected()) {
      ASSERT_TRUE(client.Reconnect()) << client.last_error();
    }
    server_faults.store(false);
    QueryClient probe;
    ClientOptions probe_options;
    probe_options.read_timeout_ms = 3000;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server.port(), probe_options));
    QueryResponse after;
    ASSERT_EQ(probe.Query(QueryRequest(pairs[0].u, pairs[0].v), &after),
              QueryClient::RpcStatus::kOk)
        << probe.last_error();
    EXPECT_TRUE(SameAnswer(after, expected[0]));

    if (plan.degrade_after_inflight > 0) {
      // The hog held the only slot nearly the whole time: the saturation
      // plan must actually have exercised the degradation path.
      EXPECT_GT(server.GetStats().degraded, 0u);
      EXPECT_GT(degraded, 0u);
    }
    server.Stop();
  }
  EXPECT_GE(plans_run, 8u);
}

// A mid-frame stall longer than the server's read timeout gets the
// connection reaped (slowloris defense) — and the server stays healthy.
TEST_F(ChaosTest, SlowlorisConnectionIsReaped) {
  ServerOptions options;
  options.read_timeout_ms = 50;
  options.idle_timeout_ms = 10000;
  QueryServer server(*index_, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  QueryClient victim;
  ClientOptions victim_options;
  victim_options.read_timeout_ms = 2000;
  ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), victim_options));
  // Hand-feed half a request frame, then stall past the read timeout.
  {
    std::vector<uint8_t> frame;
    AppendFrame(&frame, FrameType::kQueryRequest,
                EncodeQueryRequest(QueryRequest(1, 2)));
    std::string connect_error;
    Socket raw = Socket::ConnectTcp("127.0.0.1", server.port(),
                                    &connect_error);
    ASSERT_TRUE(raw.valid()) << connect_error;
    const std::span<const uint8_t> half(frame.data(), frame.size() / 2);
    ASSERT_EQ(raw.SendAll(half, 1000), IoStatus::kOk);
    // Wait for the reaper, then observe the cut-off: the next read hits
    // EOF (or an error frame followed by EOF), never a hang.
    uint8_t buf[256];
    size_t n = 0;
    IoStatus status;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    do {
      status = raw.RecvSome(buf, sizeof(buf), &n, 1000);
    } while (status == IoStatus::kOk &&
             std::chrono::steady_clock::now() < give_up);
    EXPECT_NE(status, IoStatus::kTimeout);
  }

  // The healthy connection is unaffected.
  QueryResponse response;
  ASSERT_EQ(victim.Query(QueryRequest(3, 4), &response),
            QueryClient::RpcStatus::kOk)
      << victim.last_error();
  const auto stats = server.GetStats();
  EXPECT_GE(stats.read_timeouts, 1u);
  server.Stop();
}

// An idle connection is reaped after idle_timeout_ms; an active one with
// in-flight frames is not.
TEST_F(ChaosTest, IdleConnectionIsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  options.read_timeout_ms = 5000;
  QueryServer server(*index_, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  QueryClient client;
  ClientOptions client_options;
  client_options.read_timeout_ms = 3000;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), client_options));
  QueryResponse response;
  ASSERT_EQ(client.Query(QueryRequest(1, 2), &response),
            QueryClient::RpcStatus::kOk);
  // Go idle past the reaper threshold: the next query hits a dead socket
  // — a typed transport error — and a fresh connect works fine.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(client.Query(QueryRequest(1, 2), &response),
            QueryClient::RpcStatus::kTransportError);
  ASSERT_TRUE(client.Reconnect()) << client.last_error();
  ASSERT_EQ(client.Query(QueryRequest(1, 2), &response),
            QueryClient::RpcStatus::kOk);
  EXPECT_GE(server.GetStats().idle_timeouts, 1u);
  server.Stop();
}

}  // namespace
}  // namespace qbs::server
