// kUpdateRequest end-to-end over loopback: the acceptance contract is that
// the daemon NEVER returns a stale cached answer through an applied delta
// — every answer served after an update matches a fresh index built on
// the updated graph — and that query traffic (including degraded answers)
// stays correct while updates churn the index. An update erases only the
// cached answers it can change (the rule is stated at EditCanChange in
// server/server.cc), so the answers it cannot change are still cache hits
// after it.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/qbs_index.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/graph_delta.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"

namespace qbs::server {
namespace {

class ServerUpdateTest : public ::testing::Test {
 protected:
  ServerUpdateTest() : g_(BarabasiAlbert(400, 3, 29)) {
    QbsOptions options;
    options.num_landmarks = 8;
    index_ = QbsIndex::Build(g_, options);
  }

  std::unique_ptr<QueryServer> StartUpdatable(ServerOptions options = {}) {
    index_->EnableUpdates(&g_);
    options.allow_updates = true;
    return StartServer(options);
  }

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

TEST_F(ServerUpdateTest, CachedPairInvalidatedByUpdate) {
  auto server = StartUpdatable();
  QueryClient client = ConnectTo(*server);

  // Pick a non-adjacent pair (distance > 1), cache it, confirm the replay
  // is a hit.
  QueryRequest request;
  request.u = 5;
  request.v = 320;
  while (g_.HasEdge(request.u, request.v)) ++request.v;
  ASSERT_LT(request.v, g_.NumVertices());
  QueryResponse before;
  ASSERT_EQ(client.Query(request, &before), QueryClient::RpcStatus::kOk);
  EXPECT_FALSE(before.cache_hit);
  QueryResponse replay;
  ASSERT_EQ(client.Query(request, &replay), QueryClient::RpcStatus::kOk);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_GT(before.spg.distance, 1u);

  // Insert the edge (u, v): the true distance drops to 1, so the cached
  // answer is now provably stale.
  GraphDelta delta;
  delta.Insert(request.u, request.v);
  UpdateStats stats;
  ASSERT_EQ(client.Update(delta, &stats), QueryClient::RpcStatus::kOk);
  EXPECT_EQ(stats.applied_inserts, 1u);
  EXPECT_GE(stats.repaired_columns + stats.rebuilt_columns, 1u);

  // The same request re-executes (no hit) and matches a fresh index built
  // on the updated graph — SameAnswer, the serving acceptance contract.
  QueryResponse after;
  ASSERT_EQ(client.Query(request, &after), QueryClient::RpcStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.spg.distance, 1u);
  QbsIndex fresh = QbsIndex::BuildWithLandmarks(g_, index_->landmarks());
  const QueryResponse want = fresh.Query(request);
  EXPECT_TRUE(SameAnswer(after, want));

  const auto snap = server->GetStats();
  EXPECT_EQ(snap.updates, 1u);
}

TEST_F(ServerUpdateTest, NoopUpdateKeepsCacheWarm) {
  auto server = StartUpdatable();
  QueryClient client = ConnectTo(*server);
  QueryRequest request;
  request.u = 3;
  request.v = 250;
  QueryResponse response;
  ASSERT_EQ(client.Query(request, &response), QueryClient::RpcStatus::kOk);

  // A script whose net effect is empty must not blow the cache away.
  GraphDelta delta;
  const Edge existing = g_.EdgeList().front();
  delta.Insert(existing.u, existing.v);
  UpdateStats stats;
  ASSERT_EQ(client.Update(delta, &stats), QueryClient::RpcStatus::kOk);
  EXPECT_EQ(stats.AppliedTotal(), 0u);
  EXPECT_EQ(stats.noop_updates, 1u);

  ASSERT_EQ(client.Query(request, &response), QueryClient::RpcStatus::kOk);
  EXPECT_TRUE(response.cache_hit);
}

TEST_F(ServerUpdateTest, UpdatesRejectedWhenNotEnabled) {
  auto server = StartServer();  // allow_updates stays false
  QueryClient client = ConnectTo(*server);
  GraphDelta delta;
  delta.Insert(0, 399);
  EXPECT_EQ(client.Update(delta), QueryClient::RpcStatus::kRemoteError);
  EXPECT_EQ(client.last_error_code(), ErrorCode::kBadRequest);
  // The connection survives an update rejection.
  EXPECT_TRUE(client.Ping());
  EXPECT_EQ(server->GetStats().updates, 0u);
}

// Serving updates needs an updatable index: the constructor enforces it,
// so no request can reach an update path the index cannot apply.
using ServerUpdateDeathTest = ServerUpdateTest;

TEST_F(ServerUpdateDeathTest, AllowUpdatesWithoutEnableUpdatesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServerOptions options;
  options.allow_updates = true;
  EXPECT_DEATH({ QueryServer server(*index_, options); }, "updates_enabled");
}

TEST_F(ServerUpdateTest, MalformedUpdatePayloadRejected) {
  auto server = StartUpdatable();
  // A nonzero reserved word (payload bytes 4..7) is a malformed payload,
  // not a crash: answered kBadRequest, nothing applied, and the connection
  // still answers the ping pipelined behind it.
  GraphDelta delta;
  delta.Insert(0, 399);
  std::vector<uint8_t> payload = EncodeUpdateRequest(delta);
  payload[7] = 0x80;
  std::vector<uint8_t> wire;
  AppendFrame(&wire, FrameType::kUpdateRequest, payload);
  AppendFrame(&wire, FrameType::kPing, {});
  std::string error;
  Socket raw = Socket::ConnectTcp("127.0.0.1", server->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  ASSERT_EQ(raw.SendAll(wire, 1000), IoStatus::kOk);

  FrameReader reader;
  std::vector<Frame> frames;
  uint8_t buf[512];
  while (frames.size() < 2) {
    Frame frame;
    if (reader.Next(&frame) == FrameReader::Status::kFrame) {
      frames.push_back(std::move(frame));
      continue;
    }
    size_t n = 0;
    ASSERT_EQ(raw.RecvSome(buf, sizeof(buf), &n, 5000), IoStatus::kOk);
    reader.Feed(std::span<const uint8_t>(buf, n));
  }
  ASSERT_EQ(frames[0].type, FrameType::kError);
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(DecodeError(frames[0].payload, &code, &message));
  EXPECT_EQ(code, ErrorCode::kBadRequest) << message;
  EXPECT_EQ(frames[1].type, FrameType::kPong);
  EXPECT_EQ(server->GetStats().updates, 0u);
}

// Query + update churn: reader/writer locking must keep every served
// answer exact for its graph version. The toggled edge lives between two
// otherwise-isolated extra vertices, so the probed pairs' answers are
// version-independent — any deviation is a real race or a stale cache
// read. Degraded answers (saturation) must stay valid bounds.
TEST_F(ServerUpdateTest, AnswersStayCorrectUnderChurn) {
  ServerOptions options;
  options.degrade_after_inflight = 2;
  options.max_inflight = 2;
  auto server = StartUpdatable(options);

  // Baseline exact answers from a private (serverless) fresh index.
  QbsIndex baseline = QbsIndex::BuildWithLandmarks(g_, index_->landmarks());
  const std::vector<std::pair<VertexId, VertexId>> pairs = {
      {5, 320}, {17, 88}, {200, 399}, {1, 42}};
  std::vector<QueryResponse> want;
  want.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    QueryRequest request;
    request.u = u;
    request.v = v;
    want.push_back(baseline.Query(request));
  }

  // Readers run until stopped. The main thread stops them once the updater
  // is done and every reader has checked at least one answer, so a reader
  // that only ever saw busy replies fails the test instead of passing it
  // vacuously.
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::array<std::atomic<uint64_t>, kReaders> checked{};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryClient client = ConnectTo(*server);
      for (size_t iter = 0; !stop.load(); ++iter) {
        const size_t i = (static_cast<size_t>(t) + iter) % pairs.size();
        QueryRequest request;
        request.u = pairs[i].first;
        request.v = pairs[i].second;
        QueryResponse response;
        if (client.Query(request, &response) != QueryClient::RpcStatus::kOk) {
          continue;  // busy under churn is fine; correctness is the claim
        }
        if (response.degraded()) {
          // A degraded answer is a bound pair around the true distance.
          EXPECT_LE(response.degraded_lower, want[i].spg.distance);
          EXPECT_GE(response.spg.distance, want[i].spg.distance);
        } else {
          EXPECT_TRUE(SameAnswer(response, want[i]))
              << "stale/raced answer for (" << request.u << ", " << request.v
              << ")";
        }
        checked[t].fetch_add(1);
      }
    });
  }

  // Updater: insert-then-delete of the same edge within one batch is a
  // net-empty script, so the graph (and every answer) stays fixed while
  // the writer-lock path still runs on every round — any reader deviation
  // is a locking bug, not a legitimate version change.
  std::thread updater([&] {
    QueryClient client = ConnectTo(*server);
    for (int i = 0; i < 60 && !stop.load(); ++i) {
      GraphDelta delta;
      delta.Insert(7, 391);
      delta.Delete(7, 391);  // cancels: graph unchanged, lock still taken
      UpdateStats stats;
      if (client.Update(delta, &stats) != QueryClient::RpcStatus::kOk) break;
      EXPECT_EQ(stats.AppliedTotal(), 0u);
    }
  });

  updater.join();
  const auto all_checked = [&] {
    for (const auto& c : checked) {
      if (c.load() == 0) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!all_checked() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_GT(checked[t].load(), 0u) << "reader " << t;
  }
}

// Real churn variant: the updater genuinely inserts and then removes the
// same edge in separate batches. Answers may legitimately differ between
// versions for pairs near the edge, so the probes sit far from it and
// assert version-independent answers throughout.
TEST_F(ServerUpdateTest, AppliedTogglesNeverServeStaleCache) {
  auto server = StartUpdatable();
  QueryClient update_client = ConnectTo(*server);
  QueryClient query_client = ConnectTo(*server);

  // d(u, v) with and without the toggled edge must agree for the probe —
  // verify that up front with a fresh build per version.
  QueryRequest probe;
  probe.u = 11;
  probe.v = 207;
  while (g_.HasEdge(probe.u, probe.v)) ++probe.v;
  ASSERT_LT(probe.v, g_.NumVertices());
  const QueryResponse want_base = index_->Query(probe);

  for (int round = 0; round < 5; ++round) {
    GraphDelta ins;
    ins.Insert(probe.u, probe.v);
    UpdateStats stats;
    ASSERT_EQ(update_client.Update(ins, &stats), QueryClient::RpcStatus::kOk);
    ASSERT_EQ(stats.applied_inserts, 1u);
    QueryResponse with_edge;
    ASSERT_EQ(query_client.Query(probe, &with_edge),
              QueryClient::RpcStatus::kOk);
    EXPECT_EQ(with_edge.spg.distance, 1u) << "stale answer after insert";

    GraphDelta del;
    del.Delete(probe.u, probe.v);
    ASSERT_EQ(update_client.Update(del, &stats), QueryClient::RpcStatus::kOk);
    ASSERT_EQ(stats.applied_deletes, 1u);
    QueryResponse without_edge;
    ASSERT_EQ(query_client.Query(probe, &without_edge),
              QueryClient::RpcStatus::kOk);
    EXPECT_TRUE(SameAnswer(without_edge, want_base))
        << "stale answer after delete, round " << round;
  }
  EXPECT_EQ(server->GetStats().updates, 10u);
}

// Exact invalidation: every sampled pair is cached in kSpg, kDistance and
// budgeted modes, then single-edge inserts and deletes and multi-edge
// batches arrive through the daemon. After each one every served answer
// must be a fresh build's. Each of a pair's entries is kept exactly when
// its kSpg entry is, unless it carries a budget flag (never kept); after a
// single-edge edit the kSpg entry is kept exactly when its answer did not
// change, so some answers are cache hits. The corners: an insert that adds
// an equal-length shortest path, a delete of one of several shortest
// paths, an edit that turns a budget-exceeded answer budget-pruned while
// its SPG stays, a batch that cuts a vertex off, an insert that joins it
// back, a u == v entry, and budget-pruned and budget-exceeded entries.
TEST_F(ServerUpdateTest, EditsEraseOnlyTheAnswersTheyChange) {
  auto server = StartUpdatable();
  QueryClient client = ConnectTo(*server);
  const VertexId n = g_.NumVertices();
  std::mt19937_64 rng(43);

  // The vertex a batch below cuts off; BA(n, 3) has minimum degree 3.
  VertexId lone = 0;
  while (g_.Degree(lone) > 3) ++lone;
  std::set<std::pair<VertexId, VertexId>> sampled = {{lone, lone}};
  while (sampled.size() < 160) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v =
        static_cast<VertexId>(sampled.size() < 12 ? lone : rng() % n);
    if (u != v) sampled.insert(std::minmax(u, v));
  }
  const std::vector<std::pair<VertexId, VertexId>> pairs(sampled.begin(),
                                                         sampled.end());
  constexpr size_t kModes = 5;  // kSpg, kDistance, budgets 1, 2 and 3
  std::vector<QueryRequest> requests;
  for (const auto& [u, v] : pairs) {
    requests.emplace_back(v, u);
    requests.emplace_back(u, v, QueryMode::kDistance);
    for (uint32_t budget = 1; budget <= 3; ++budget) {
      requests.emplace_back(u, v, QueryMode::kSpg, budget);
    }
  }
  const size_t self_pair =
      std::find(pairs.begin(), pairs.end(), std::make_pair(lone, lone)) -
      pairs.begin();
  const size_t lone_pair = static_cast<size_t>(
      std::find_if(pairs.begin(), pairs.end(),
                   [&](const auto& p) {
                     return p.first != p.second &&
                            (p.first == lone || p.second == lone);
                   }) -
      pairs.begin());

  // Asks every request once and checks it as described above; `prev`
  // becomes this state's answers.
  constexpr uint32_t kBudgetFlags =
      kResponseFlagBudgetPruned | kResponseFlagBudgetExceeded;
  std::vector<QueryResponse> prev;
  std::vector<bool> hit(requests.size());
  const auto ask_all = [&](const std::string& state, bool single_edit) {
    const QbsIndex fresh =
        QbsIndex::BuildWithLandmarks(g_, index_->landmarks());
    std::vector<QueryResponse> now;
    size_t hits = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      QueryResponse got;
      ASSERT_EQ(client.Query(requests[i], &got), QueryClient::RpcStatus::kOk);
      now.push_back(fresh.Query(requests[i]));
      EXPECT_TRUE(SameAnswer(got, now[i]))
          << state << ": stale answer for (" << requests[i].u << ", "
          << requests[i].v << ") mode " << static_cast<int>(requests[i].mode)
          << " budget " << requests[i].budget;
      hit[i] = got.cache_hit;
      hits += got.cache_hit ? 1 : 0;
    }
    for (size_t i = 0; !prev.empty() && i < requests.size(); ++i) {
      const size_t spg = i - i % kModes;
      const bool flagged = (prev[i].flags & kBudgetFlags) != 0;
      EXPECT_EQ(hit[i], hit[spg] && !flagged) << state << ": request " << i;
      if (single_edit && i == spg) {
        EXPECT_EQ(hit[i], SameAnswer(prev[i], now[i]))
            << state << ": kSpg entry (" << requests[i].u << ", "
            << requests[i].v << ") kept " << hit[i];
      }
    }
    if (!prev.empty()) {
      EXPECT_TRUE(hit[self_pair * kModes]) << state << ": u == v erased";
    }
    if (single_edit) {
      EXPECT_GT(hits, 0u) << state;
    }
    prev = std::move(now);
  };
  const auto update = [&](const GraphDelta& delta) {
    UpdateStats stats;
    ASSERT_EQ(client.Update(delta, &stats), QueryClient::RpcStatus::kOk);
    EXPECT_EQ(stats.AppliedTotal(), delta.size());
  };
  const auto single = [&](EdgeOp op, VertexId a, VertexId b) {
    GraphDelta delta;
    delta.Add({op, a, b});
    update(delta);
    ask_all((op == EdgeOp::kInsert ? "insert " : "delete ") +
                std::to_string(a) + "-" + std::to_string(b),
            true);
  };

  ask_all("fill", false);
  size_t pruned = 0;
  size_t exceeded = 0;
  for (const QueryResponse& r : prev) {
    pruned += (r.flags & kResponseFlagBudgetPruned) != 0 ? 1 : 0;
    exceeded += (r.flags & kResponseFlagBudgetExceeded) != 0 ? 1 : 0;
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(exceeded, 0u);

  // An insert (a, b) with d(u, a) + 1 + d(b, v) = d(u, v) adds an
  // equal-length shortest path to (u, v): its SPG grows, its distance stays.
  const auto equal_length = [&]() -> std::optional<std::array<size_t, 3>> {
    for (size_t p = 0; p < pairs.size(); ++p) {
      const std::vector<uint32_t> du = BfsDistances(g_, pairs[p].first);
      const std::vector<uint32_t> dv = BfsDistances(g_, pairs[p].second);
      const uint32_t d = du[pairs[p].second];
      if (d < 2 || d == kUnreachable) continue;
      for (VertexId a = 0; a < n; ++a) {
        for (VertexId b = 0; b < n && du[a] < d; ++b) {
          if (a != b && du[a] + 1 + dv[b] == d && !g_.HasEdge(a, b)) {
            return std::array<size_t, 3>{p, a, b};
          }
        }
      }
    }
    return std::nullopt;
  }();
  ASSERT_TRUE(equal_length.has_value());
  {
    const auto [p, a, b] = *equal_length;
    const QueryResponse before = prev[p * kModes];
    single(EdgeOp::kInsert, static_cast<VertexId>(a), static_cast<VertexId>(b));
    EXPECT_EQ(prev[p * kModes].spg.distance, before.spg.distance);
    EXPECT_GT(prev[p * kModes].spg.edges.size(), before.spg.edges.size());
    EXPECT_FALSE(hit[p * kModes]);
  }

  // Deleting one of two SPG edges at the same depth from u removes one of
  // several shortest paths: the SPG shrinks, the distance stays.
  const auto one_of_several = [&]() -> std::optional<std::pair<size_t, Edge>> {
    for (size_t p = 0; p < pairs.size(); ++p) {
      const std::vector<uint32_t> du = BfsDistances(g_, pairs[p].first);
      std::vector<size_t> per_depth(n);
      for (const Edge& e : prev[p * kModes].spg.edges) {
        if (++per_depth[std::min(du[e.u], du[e.v])] == 2) {
          return std::make_pair(p, e);
        }
      }
    }
    return std::nullopt;
  }();
  ASSERT_TRUE(one_of_several.has_value());
  {
    const auto [p, e] = *one_of_several;
    const QueryResponse before = prev[p * kModes];
    single(EdgeOp::kDelete, e.u, e.v);
    EXPECT_EQ(prev[p * kModes].spg.distance, before.spg.distance);
    EXPECT_LT(prev[p * kModes].spg.edges.size(), before.spg.edges.size());
    EXPECT_FALSE(hit[p * kModes]);
  }

  // An edit that leaves (u, v)'s SPG alone but turns a budget-exceeded
  // answer for it budget-pruned: the labels' lower bound moved. Only the
  // budget clause erases that entry.
  const auto flips = [&]() -> std::optional<std::pair<size_t, EdgeUpdate>> {
    std::mt19937_64 pick(7);
    const std::vector<Edge> edges = g_.EdgeList();
    for (int k = 0; k < 1000; ++k) {
      GraphDelta delta;
      if (k % 2 == 0) {
        const Edge e = edges[pick() % edges.size()];
        delta.Delete(e.u, e.v);
      } else {
        delta.Insert(static_cast<VertexId>(pick() % n),
                     static_cast<VertexId>(pick() % n));
      }
      const NetChanges net = ComputeNetChanges(g_, delta);
      if (net.EmptyNet()) continue;
      const Graph edited = ApplyNetChanges(g_, net);
      const QbsIndex fresh =
          QbsIndex::BuildWithLandmarks(edited, index_->landmarks());
      for (size_t i = 0; i < requests.size(); ++i) {
        const size_t spg = i - i % kModes;
        if ((prev[i].flags & kResponseFlagBudgetExceeded) != 0 &&
            !SameAnswer(fresh.Query(requests[i]), prev[i]) &&
            SameAnswer(fresh.Query(requests[spg]), prev[spg])) {
          return std::make_pair(i, delta.updates()[0]);
        }
      }
    }
    return std::nullopt;
  }();
  ASSERT_TRUE(flips.has_value());
  {
    const auto [i, edit] = *flips;
    single(edit.op, edit.u, edit.v);
    EXPECT_EQ(prev[i].flags, kResponseFlagBudgetPruned);
    EXPECT_FALSE(hit[i]);
    EXPECT_TRUE(hit[i - i % kModes]);
  }

  // A batch cuts `lone` off; then one insert joins its component back.
  GraphDelta cut;
  for (const VertexId w : g_.Neighbors(lone)) cut.Delete(lone, w);
  update(cut);
  ask_all("cut off " + std::to_string(lone), false);
  EXPECT_EQ(prev[lone_pair * kModes].spg.distance, kUnreachable);
  VertexId far = 0;
  while (far == lone || g_.HasEdge(lone, far)) ++far;
  single(EdgeOp::kInsert, lone, far);
  EXPECT_NE(prev[lone_pair * kModes].spg.distance, kUnreachable);

  // Random single-edge inserts and deletes, then a mixed batch.
  const auto random_edge = [&] {
    const std::vector<Edge> edges = g_.EdgeList();
    return edges[rng() % edges.size()];
  };
  const auto random_non_edge = [&] {
    for (;;) {
      const auto a = static_cast<VertexId>(rng() % n);
      const auto b = static_cast<VertexId>(rng() % n);
      if (a != b && !g_.HasEdge(a, b)) return Edge(a, b);
    }
  };
  for (int round = 0; round < 4; ++round) {
    const Edge e = round % 2 == 0 ? random_non_edge() : random_edge();
    single(round % 2 == 0 ? EdgeOp::kInsert : EdgeOp::kDelete, e.u, e.v);
  }
  GraphDelta mixed;
  const Edge gone = random_edge();
  mixed.Delete(gone.u, gone.v);
  for (int i = 0; i < 2; ++i) {
    const Edge e = random_non_edge();
    mixed.Insert(e.u, e.v);
  }
  update(mixed);
  ask_all("mixed batch", false);

  EXPECT_GT(server->GetStats().cache.invalidated, 0u);
}

}  // namespace
}  // namespace qbs::server
