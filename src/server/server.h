// `qbs serve` — the long-lived query daemon. Loads a QbsIndex once and
// serves concurrent QueryRequest frames (server/protocol.h) over TCP,
// thread-per-connection, with the serving-layer guarantees:
//
//   * Hot-pair caching — every cacheable request consults the sharded LRU
//     ResultCache before touching a searcher; hits replay the payload
//     bit-identically with the cache_hit bit set. An applied edit erases
//     only the cached answers it can change (ServeUpdate), so the rest
//     stay hits across edits.
//   * Admission control — at most max_inflight queries execute at once
//     (bounding the SearcherLease pool and memory), at most max_queue more
//     wait; beyond that the daemon answers kBusy (with the observed queue
//     depth) immediately instead of building an unbounded backlog.
//   * Deadlines — a request's deadline_ms is enforced at every admission
//     boundary: on receipt, after an admission wait (the wait itself is
//     capped at the remaining budget, rounded up to whole milliseconds),
//     and after any injected slowness. A request whose budget ran out is
//     answered kDeadlineExceeded, never executed late.
//   * Timeouts — all socket I/O is time-bounded (server/socket.h: a
//     blocking recv under a kernel timeout; a send that waits only on a
//     full send buffer). Options saturate at INT32_MAX ms. A peer
//     stalling mid-frame is cut off after read_timeout_ms (slowloris
//     defense), a connection idle between requests is reaped after
//     idle_timeout_ms, and a peer not draining responses is cut off after
//     write_timeout_ms. No stalled client can pin a connection thread.
//   * Graceful degradation — past degrade_after_inflight executing
//     queries, each new query is answered from the labelling alone (one
//     label bound per request: kResponseFlagDegraded bounds, O(|R|), no
//     searcher, no queueing) instead of deepening the backlog. It is the
//     same answer path as every other query (ServeQuery): only the answer
//     source differs, and degraded answers are never cached.
//   * Observability — per-class latency histograms (cache hits; answers
//     that scanned no edge; guided searches) plus counters for every
//     robustness path (busy, deadline-exceeded, degraded, timeouts).
//
// Shutdown is cooperative and clean: a kShutdown frame (when permitted) or
// RequestStop() stops the accept loop, wakes admission waiters, shuts down
// every connection socket, and Stop() joins/waits until the last
// connection thread exits — no leaked threads, sockets, or searchers
// (ASan/TSan-clean by test). Fault injection (server/fault_injection.h)
// hooks each connection's socket and query execution through
// ServerOptions::fault_injector_factory; oracle_driver_test's fault plans
// drive every failure path above through real loopback connections.

#ifndef QBS_SERVER_SERVER_H_
#define QBS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/qbs_index.h"
#include "server/fault_injection.h"
#include "server/latency_histogram.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/socket.h"
#include "util/sync.h"

namespace qbs::server {

/// Bounded-concurrency admission: AcquireFor() either admits immediately,
/// waits (if the bounded wait queue has room, up to a caller budget), or
/// rejects. Exposed separately from the server so backpressure semantics
/// are unit-testable without sockets. Rejections are counted by the
/// server (StatsSnapshot::busy_rejections), not here.
class AdmissionGate {
 public:
  enum class Ticket {
    kAdmitted,  // caller may run; must Release() exactly once
    kRejected,  // queue full — answer kBusy, do NOT Release()
    kTimedOut,  // wait exceeded the caller's budget — do NOT Release()
    kShutdown,  // gate shut down while waiting — do NOT Release()
  };

  /// `max_inflight` concurrent admissions (>= 1 enforced); up to
  /// `max_queue` further callers block in FIFO-wakeup order.
  AdmissionGate(size_t max_inflight, size_t max_queue);

  /// A queued caller gives up after `timeout_ms` (negative = wait
  /// forever; 0 = never queue, admit-or-reject only). `queue_depth`
  /// (optional) receives the number of waiters observed at the decision
  /// point — the backlog a kBusy answer reports to the client.
  Ticket AcquireFor(int64_t timeout_ms, size_t* queue_depth = nullptr);
  void Release();
  /// Wakes every waiter with kShutdown; later AcquireFor calls return
  /// kShutdown immediately.
  void Shutdown();

  size_t inflight() const;
  size_t queue_depth() const;

 private:
  mutable Mutex mu_{LockRank::kAdmission};
  CondVar cv_;
  const size_t max_inflight_;
  const size_t max_queue_;
  size_t inflight_ QBS_GUARDED_BY(mu_) = 0;
  size_t waiters_ QBS_GUARDED_BY(mu_) = 0;
  bool shutdown_ QBS_GUARDED_BY(mu_) = false;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port()).
  uint16_t port = 0;
  /// Concurrent executing queries; 0 = hardware concurrency. Also bounds
  /// the searcher pool growth attributable to serving.
  size_t max_inflight = 0;
  /// Admission waiters beyond max_inflight before kBusy.
  size_t max_queue = 64;
  /// Concurrent connections; extras are accepted and closed immediately.
  size_t max_connections = 256;
  /// Hot-pair result cache budget; 0 disables caching entirely.
  size_t cache_bytes = 64u << 20;
  /// Honor kShutdown frames from clients (on for tests/CI smoke; off for
  /// anything resembling production).
  bool allow_remote_shutdown = true;
  /// Honor kUpdateRequest frames (edge edit scripts). Requires the index
  /// to be in updatable mode (QbsIndex::EnableUpdates) before the server
  /// is constructed; the constructor QBS_CHECKs it.
  /// Updates run under a writer lock — queries drain first, the delta
  /// applies, and every cached answer the delta can change is erased
  /// before any query can read the cache again, so a served answer is
  /// never stale across an applied delta.
  bool allow_updates = false;

  /// Max milliseconds a started request frame may take to arrive in full
  /// (slowloris defense); 0 = unbounded.
  uint32_t read_timeout_ms = 5000;
  /// Max milliseconds a connection may sit idle between requests before
  /// the reaper closes it; 0 = unbounded.
  uint32_t idle_timeout_ms = 60000;
  /// Max milliseconds a response write may stall on an undraining peer;
  /// 0 = unbounded.
  uint32_t write_timeout_ms = 5000;
  /// Graceful degradation threshold: when at least this many queries are
  /// executing, new queries are answered with label-only bounds
  /// (kResponseFlagDegraded) instead of queueing. 0 = never degrade.
  size_t degrade_after_inflight = 0;

  /// Test hook: builds one FaultInjector per accepted connection (keyed by
  /// the connection counter) and attaches it to the connection's socket
  /// and query execution. Production servers leave this empty.
  std::function<std::unique_ptr<FaultInjector>(uint64_t connection_id)>
      fault_injector_factory;
};

class QueryServer {
 public:
  /// The index (and the graph it was built on) must outlive the server.
  /// Aborts if options.allow_updates is set on an index whose updates
  /// are not enabled.
  QueryServer(QbsIndex& index, const ServerOptions& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept loop. Returns false (filling
  /// *error) on socket/bind failures.
  bool Start(std::string* error = nullptr);

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.bound_port(); }

  /// Asks the server to stop: no new connections, admission waiters woken,
  /// existing connection sockets shut down. Does not join — call Stop().
  void RequestStop();

  /// Blocks until a stop is requested (RequestStop or a remote kShutdown)
  /// or `timeout_ms` passes; returns true iff a stop was requested.
  bool WaitFor(uint32_t timeout_ms);

  /// RequestStop() + join the accept loop and every connection thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  struct StatsSnapshot {
    uint64_t queries = 0;            // executed or cache-answered
    uint64_t updates = 0;            // update frames applied
    uint64_t busy_rejections = 0;    // kBusy answers (admission)
    uint64_t deadline_exceeded = 0;  // kDeadlineExceeded answers
    uint64_t degraded = 0;           // label-only degraded answers
    uint64_t bad_requests = 0;       // decode/validation errors answered
    uint64_t protocol_errors = 0;    // corrupt streams (connection dropped)
    uint64_t read_timeouts = 0;      // mid-frame stalls cut off
    uint64_t idle_timeouts = 0;      // idle connections reaped
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  // over max_connections
    size_t active_connections = 0;
    size_t admission_inflight = 0;     // gauge: queries executing right now
    size_t admission_queue_depth = 0;  // gauge: admission waiters right now
    ResultCache::Stats cache;
    LatencyHistogram::Snapshot lat_cached;  // served from the result cache
    LatencyHistogram::Snapshot lat_short;   // no edge scanned
    LatencyHistogram::Snapshot lat_long;    // guided searches
  };
  StatsSnapshot GetStats() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd, uint64_t conn_id);
  /// Handles one decoded frame; returns false when the connection should
  /// close (shutdown, write failure). Frames are handled one at a time in
  /// arrival order, so responses go out in request order.
  bool HandleFrame(Socket& sock, FaultInjector* injector, const Frame& frame);
  /// The one answer path for a query: enforces its deadline, then either
  /// degrades (past degrade_after_inflight: no admission, no injected
  /// slowness) or takes an admission slot. Answers from the cache, from
  /// LabelAnswer (degraded) or from the index, caches only undegraded
  /// answers, counts the answer once (degraded or queries), records its
  /// latency class, and sends the response.
  bool ServeQuery(Socket& sock, FaultInjector* injector,
                  const QueryRequest& request);
  /// The labels-only answer; caller holds index_mu_ as a reader. u == v is
  /// exact; otherwise one ComputeLabelBound yields kResponseFlagDegraded
  /// bounds, or the exact distance when the labels certify it for a
  /// distance-only request.
  QueryResponse LabelAnswer(const QueryRequest& request) const;
  /// Applies one decoded edit script under the writer side of index_mu_
  /// and, before releasing it, erases the cached answers the edit can
  /// change: budget-flagged ones, and those of pairs {u, v} with
  /// near[u] + 1 + near[v] <= the cached distance, where near comes from
  /// one BFS on the pre-edit graph from the net edits' endpoints (the
  /// rule and why it suffices: EditCanChange in server.cc). Answers with
  /// kUpdateResponse.
  bool ServeUpdate(Socket& sock, const GraphDelta& delta);
  bool SendFrame(Socket& sock, FrameType type,
                 std::span<const uint8_t> payload);
  bool SendError(Socket& sock, ErrorCode code, const std::string& message);

  QbsIndex& index_;
  const ServerOptions options_;
  const VertexId num_vertices_;  // |V| is fixed: edits are edge-level
  ResultCache cache_;
  AdmissionGate gate_;
  /// Readers: every query path that touches the index or the result cache
  /// (lookup through insert, one critical section — so a pre-update
  /// response can never be inserted after the post-update invalidation).
  /// Writer: ServeUpdate, which erases the answers the edit can change
  /// before unlocking. The
  /// index_ and cache_ members above are governed by this capability
  /// through that reader/writer protocol rather than per-field
  /// QBS_GUARDED_BY (the cache has its own internal shard locks, and the
  /// index is read-shared), so the contract is enforced by review plus
  /// the lock-rank checker: kIndex sits below the shard, searcher-pool,
  /// and thread-pool ranks it is held across.
  mutable SharedMutex index_mu_{LockRank::kIndex};

  ListenSocket listener_;
  std::thread accept_thread_;
  /// The one stop flag: set once, under mu_ (so WaitFor cannot miss it),
  /// and read lock-free by the accept and connection loops.
  std::atomic<bool> stopping_{false};

  // Stop/Wait handshake + connection bookkeeping. Connection threads are
  // detached; Stop() waits for active_connections_ to drain after shutting
  // their sockets down, which gives join semantics without a growing
  // vector of joinable handles on a long-lived daemon.
  mutable Mutex mu_{LockRank::kServerLifecycle};
  CondVar stop_cv_;
  CondVar drain_cv_;
  std::unordered_set<int> conn_fds_ QBS_GUARDED_BY(mu_);
  size_t active_connections_ QBS_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  LatencyHistogram lat_cached_;
  LatencyHistogram lat_short_;
  LatencyHistogram lat_long_;
};

}  // namespace qbs::server

#endif  // QBS_SERVER_SERVER_H_
