#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "core/sketch.h"
#include "graph/bfs.h"
#include "graph/graph_delta.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qbs::server {
namespace {

using Clock = std::chrono::steady_clock;

// Advisory retry hint carried in kBusy responses.
constexpr uint32_t kBusyRetryMs = 50;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Whether an edit batch can change the cached answer `entry`, given
// `near`: each vertex's distance, in the pre-edit graph, to the nearest
// endpoint of the batch's net inserts and deletes. An entry is erased
// when its flags say budget-pruned or budget-exceeded (which of the two a
// budgeted request gets depends on the labels' lower bound, not only on
// the graph), or when
//
//   near[u] + 1 + near[v] <= D      (kUnreachable counting as infinity),
//
// D being the cached distance. Sketch of why every changed answer meets
// it, for batches of any size:
//   * A deleted edge (a, b) on an old shortest path gives
//     d(u, a) + 1 + d(b, v) = D.
//   * A new shortest path (shorter, or of length D but not in the old SPG)
//     uses an inserted edge. Its first and last changed-edge endpoints
//     split it into a prefix and a suffix that lie in the old graph, and
//     prefix + 1 + suffix <= D.
// For a single-edge edit the rule is also exact: when the same endpoint is
// nearest to both u and v the sum exceeds D, so an entry is kept exactly
// when its SPG is unchanged, and the canonical edge order keeps it byte-
// identical. u == v entries (D = 0) always survive.
bool EditCanChange(const std::vector<uint32_t>& near,
                   const ResultCache::EntryView& entry) {
  if ((entry.flags &
       (kResponseFlagBudgetPruned | kResponseFlagBudgetExceeded)) != 0) {
    return true;
  }
  if (near[entry.u] == kUnreachable || near[entry.v] == kUnreachable) {
    return false;
  }
  return entry.distance == kUnreachable ||
         uint64_t{near[entry.u]} + 1 + near[entry.v] <= entry.distance;
}

}  // namespace

// ---- AdmissionGate --------------------------------------------------------

AdmissionGate::AdmissionGate(size_t max_inflight, size_t max_queue)
    : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
      max_queue_(max_queue) {}

AdmissionGate::Ticket AdmissionGate::AcquireFor(int64_t timeout_ms,
                                                size_t* queue_depth) {
  // The wait is an explicit predicate loop (not a wait(lock, pred) lambda)
  // so the guarded-field reads stay inside this function's analyzed
  // critical section.
  MutexLock lock(mu_);
  Ticket ticket = Ticket::kAdmitted;
  if (shutdown_) {
    ticket = Ticket::kShutdown;
  } else if (inflight_ >= max_inflight_) {
    if (waiters_ >= max_queue_ || timeout_ms == 0) {
      ticket = Ticket::kRejected;
    } else {
      ++waiters_;
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(timeout_ms);
      while (!shutdown_ && inflight_ >= max_inflight_) {
        if (timeout_ms < 0) {
          cv_.Wait(mu_);
        } else if (!cv_.WaitUntil(mu_, deadline)) {
          break;
        }
      }
      --waiters_;
      if (shutdown_) {
        ticket = Ticket::kShutdown;
      } else if (inflight_ >= max_inflight_) {
        ticket = Ticket::kTimedOut;
      }
    }
  }
  if (ticket == Ticket::kAdmitted) ++inflight_;
  if (queue_depth != nullptr) *queue_depth = waiters_;
  return ticket;
}

void AdmissionGate::Release() {
  {
    MutexLock lock(mu_);
    --inflight_;
  }
  cv_.NotifyOne();
}

void AdmissionGate::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

size_t AdmissionGate::inflight() const {
  MutexLock lock(mu_);
  return inflight_;
}

size_t AdmissionGate::queue_depth() const {
  MutexLock lock(mu_);
  return waiters_;
}

// ---- QueryServer ----------------------------------------------------------

QueryServer::QueryServer(QbsIndex& index, const ServerOptions& options)
    : index_(index),
      options_(options),
      num_vertices_(index.graph().NumVertices()),
      cache_({.capacity_bytes = options.cache_bytes}),
      gate_(EffectiveThreads(options.max_inflight), options.max_queue) {
  QBS_CHECK(!options.allow_updates || index.updates_enabled());
}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Start(std::string* error) {
  if (!listener_.Open(options_.host, options_.port, error)) return false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void QueryServer::RequestStop() {
  {
    MutexLock lock(mu_);
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    // Notified under mu_ so a woken WaitFor() caller cannot return
    // and destroy the server (and this cv) before the broadcast finishes.
    stop_cv_.NotifyAll();
  }
  gate_.Shutdown();
  // Wake the accept loop and every blocked connection recv.
  listener_.Shutdown();
  MutexLock lock(mu_);
  for (const int fd : conn_fds_) ShutdownFd(fd);
}

bool QueryServer::WaitFor(uint32_t timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  MutexLock lock(mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!stop_cv_.WaitUntil(mu_, deadline)) break;
  }
  return stopping_.load(std::memory_order_acquire);
}

void QueryServer::Stop() {
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Connection threads are detached; wait for them to drain after their
    // sockets were shut down in RequestStop().
    MutexLock lock(mu_);
    while (active_connections_ != 0) drain_cv_.Wait(mu_);
  }
  listener_.Close();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = listener_.Accept();
    if (fd < 0) break;  // listener shut down (or unrecoverable)
    if (stopping_.load(std::memory_order_acquire)) {
      CloseFd(fd);
      break;
    }
    bool admitted = false;
    {
      MutexLock lock(mu_);
      if (conn_fds_.size() < options_.max_connections) {
        conn_fds_.insert(fd);
        ++active_connections_;
        admitted = true;
      }
    }
    if (!admitted) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      CloseFd(fd);
      continue;
    }
    const uint64_t conn_id =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::thread([this, fd, conn_id] { HandleConnection(fd, conn_id); })
        .detach();
  }
}

void QueryServer::HandleConnection(int fd, uint64_t conn_id) {
  {
    // Scoped so the Socket closes fd before the count below drops: Stop()
    // must not observe active_connections_ == 0 while the fd is still
    // open.
    Socket sock(fd);
    sock.SetNoDelay();
    std::unique_ptr<FaultInjector> injector;
    if (options_.fault_injector_factory) {
      injector = options_.fault_injector_factory(conn_id);
      sock.set_fault_injector(injector.get());
    }
    FrameReader reader(kMaxRequestPayload);
    uint8_t buf[64 * 1024];
    bool open = true;
    // The per-frame read deadline starts when a frame's first bytes land
    // and is re-armed after each decoded frame — so a slowloris trickling
    // a request byte-by-byte cannot extend it.
    Clock::time_point frame_start{};
    while (open && !stopping_.load(std::memory_order_acquire)) {
      const bool mid_frame = reader.PendingBytes() > 0;
      int32_t timeout = kNoTimeout;
      if (mid_frame) {
        if (options_.read_timeout_ms > 0) {
          const auto frame_deadline =
              frame_start + std::chrono::milliseconds(options_.read_timeout_ms);
          timeout = RemainingMs(frame_deadline);
        }
      } else if (options_.idle_timeout_ms > 0) {
        timeout = ClampTimeoutMs(options_.idle_timeout_ms);
      }
      size_t n = 0;
      const IoStatus status = sock.RecvSome(buf, sizeof(buf), &n, timeout);
      if (status == IoStatus::kTimeout) {
        if (mid_frame) {
          read_timeouts_.fetch_add(1, std::memory_order_relaxed);
          // Best-effort notice (the write itself is bounded), then cut the
          // slow peer off — framing can't resume mid-request anyway.
          SendError(sock, ErrorCode::kBadRequest,
                    "request frame timed out mid-read");
        } else {
          idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      if (status != IoStatus::kOk) break;  // peer closed, reset, or shut down
      if (!mid_frame) frame_start = Clock::now();
      reader.Feed(std::span<const uint8_t>(buf, n));
      Frame frame;
      for (;;) {
        const FrameReader::Status frame_status = reader.Next(&frame);
        if (frame_status == FrameReader::Status::kNeedMore) break;
        if (frame_status == FrameReader::Status::kBad) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          SendError(sock, ErrorCode::kBadRequest, reader.error());
          open = false;
          break;
        }
        if (!HandleFrame(sock, injector.get(), frame)) {
          open = false;
          break;
        }
        frame_start = Clock::now();  // re-arm for the next frame's bytes
      }
    }
    // Unlisted while the fd is still open. Once it closes, the accept loop
    // may hand its number to a new connection, and an erase after that
    // would unlist the new one: RequestStop() would then never shut it
    // down, and Stop() would wait out its idle timeout.
    MutexLock lock(mu_);
    conn_fds_.erase(fd);
  }
  {
    MutexLock lock(mu_);
    --active_connections_;
    // Notified under mu_: once the count hits zero a Stop() waiter may
    // destroy the server, so the broadcast must complete before the lock
    // — and with it the waiter's ability to proceed — is released.
    drain_cv_.NotifyAll();
  }
}

bool QueryServer::HandleFrame(Socket& sock, FaultInjector* injector,
                              const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      return SendFrame(sock, FrameType::kPong, {});
    case FrameType::kShutdown: {
      if (!options_.allow_remote_shutdown) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kBadRequest,
                         "remote shutdown not permitted");
      }
      SendFrame(sock, FrameType::kShutdownAck, {});
      RequestStop();
      return false;
    }
    case FrameType::kQueryRequest: {
      QueryRequest request;
      if (!DecodeQueryRequest(frame.payload, &request)) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kBadRequest,
                         "malformed query payload");
      }
      if (request.u >= num_vertices_ || request.v >= num_vertices_) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kVertexOutOfRange,
                         "vertex id out of range (|V| = " +
                             std::to_string(num_vertices_) + ")");
      }
      return ServeQuery(sock, injector, request);
    }
    case FrameType::kUpdateRequest: {
      if (!options_.allow_updates) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kBadRequest,
                         "updates not permitted (serve with --updatable)");
      }
      GraphDelta delta;
      if (!DecodeUpdateRequest(frame.payload, &delta)) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kBadRequest,
                         "malformed update payload");
      }
      return ServeUpdate(sock, delta);
    }
    default: {
      // A structurally valid frame the server has no business receiving
      // (e.g. a kQueryResponse). Answer with an error but keep the
      // connection: framing is intact.
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return SendError(sock, ErrorCode::kBadRequest,
                       "unexpected frame type " +
                           std::to_string(static_cast<unsigned>(frame.type)));
    }
  }
}

bool QueryServer::ServeQuery(Socket& sock, FaultInjector* injector,
                             const QueryRequest& request) {
  // The budget runs from the decoded frame. RemainingMs rounds up, so a
  // bounded request reads 0 only once its deadline has passed.
  const bool bounded = request.deadline_ms != kNoDeadline;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(request.deadline_ms);
  const auto remaining_ms = [&] {
    return bounded ? RemainingMs(deadline) : kNoTimeout;
  };
  // Boundary 1: on receipt. deadline_ms == 0 ("already expired") lands
  // here — the request is never executed.
  const int32_t wait_ms = remaining_ms();
  if (wait_ms == 0) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return SendError(sock, ErrorCode::kDeadlineExceeded,
                     "deadline expired before execution");
  }

  // Graceful degradation: past the saturation threshold, answer from the
  // labelling alone instead of joining the admission queue. A degraded
  // request takes no admission slot and no injected slowness.
  const bool degrade = options_.degrade_after_inflight > 0 &&
                       gate_.inflight() >= options_.degrade_after_inflight;
  if (!degrade) {
    size_t queue_depth = 0;
    switch (gate_.AcquireFor(wait_ms, &queue_depth)) {
      case AdmissionGate::Ticket::kRejected: {
        busy_rejections_.fetch_add(1, std::memory_order_relaxed);
        const auto depth =
            static_cast<uint32_t>(std::min<size_t>(queue_depth, UINT32_MAX));
        return SendFrame(sock, FrameType::kBusy,
                         EncodeBusy(kBusyRetryMs, depth));
      }
      case AdmissionGate::Ticket::kTimedOut:
        // Boundary 2: the admission wait consumed the whole budget.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        return SendError(sock, ErrorCode::kDeadlineExceeded,
                         "deadline expired waiting for admission");
      case AdmissionGate::Ticket::kShutdown:
        SendError(sock, ErrorCode::kShuttingDown, "server shutting down");
        return false;
      case AdmissionGate::Ticket::kAdmitted:
        break;
    }
    // Injected query slowness (a fault lever): the sleep holds the admission
    // slot, exactly like a genuinely slow query would.
    if (injector != nullptr) {
      const uint32_t delay_ms = injector->OnQueryDelayMs();
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    // Boundary 3: after any slowness, just before execution.
    if (remaining_ms() == 0) {
      gate_.Release();
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      return SendError(sock, ErrorCode::kDeadlineExceeded,
                       "deadline expired before execution");
    }
  }

  const uint64_t start = NowNanos();
  QueryResponse response;
  bool cache_hit = false;
  const bool cacheable = options_.cache_bytes > 0 &&
                         (request.flags & kQueryFlagNoCache) == 0;
  {
    // One reader critical section from cache lookup through cache insert:
    // an update (writer) can therefore never interleave between this
    // query's execution and its insert, so the post-update invalidation
    // is final — no stale response sneaks in behind it. A cache hit is exact
    // and cheaper than the label scan, so it is served even when degraded.
    ReaderLock read_lock(index_mu_);
    cache_hit = cacheable && cache_.Lookup(request, &response);
    if (!cache_hit) {
      response = degrade ? LabelAnswer(request) : index_.Query(request);
      // The cache only ever replays exact payloads.
      if (cacheable && !response.degraded()) cache_.Insert(request, response);
    }
  }
  if (!degrade) gate_.Release();
  auto& answered = response.degraded() ? degraded_ : queries_;
  answered.fetch_add(1, std::memory_order_relaxed);

  const uint64_t elapsed = NowNanos() - start;
  if (cache_hit) {
    lat_cached_.Record(elapsed);
  } else if (response.stats.TotalEdgesScanned() == 0) {
    lat_short_.Record(elapsed);  // label answer, pruned or trivial
  } else {
    lat_long_.Record(elapsed);  // a real guided search ran
  }

  const std::vector<uint8_t> payload = EncodeQueryResponse(response);
  return SendFrame(sock, FrameType::kQueryResponse, payload);
}

QueryResponse QueryServer::LabelAnswer(const QueryRequest& request) const {
  QueryResponse response;
  response.spg.u = request.u;
  response.spg.v = request.v;
  if (request.u == request.v) {
    // Trivially exact, identical to the fault-free answer: no degraded
    // flag.
    response.spg.distance = 0;
    return response;
  }
  const LabelBound bound = ComputeLabelBound(
      index_.labeling(), index_.meta_graph(), request.u, request.v);
  response.spg.distance = bound.upper;
  // Labels that certify the distance exactly, for a caller wanting only
  // the distance, give the fault-free answer: serve it undegraded.
  if (request.mode != QueryMode::kDistance || request.budget != 0 ||
      bound.upper == kUnreachable || bound.lower != bound.upper) {
    response.degraded_lower = bound.lower;
    response.flags |= kResponseFlagDegraded;
  }
  return response;
}

bool QueryServer::ServeUpdate(Socket& sock, const GraphDelta& delta) {
  UpdateStats stats;
  {
    // Writer side: queries drain, the delta applies, and every cached
    // answer the edit can change (EditCanChange) is erased before any
    // reader can run again — so no answer computed (or cached) against the
    // pre-update index is ever served afterwards. The distances to the
    // edited endpoints come from one BFS on the pre-edit graph, skipped
    // when nothing is cached. ApplyUpdates runs ParallelFor while this is
    // held — legal because the pool rank (kThreadPool) sits above kIndex.
    WriterLock write_lock(index_mu_);
    const NetChanges net = ComputeNetChanges(index_.graph(), delta);
    std::vector<uint32_t> near;
    if (!net.EmptyNet() && cache_.GetStats().entries > 0) {
      std::vector<VertexId> endpoints;
      for (const auto* edges : {&net.inserts, &net.deletes}) {
        for (const Edge& e : *edges) {
          endpoints.push_back(e.u);
          endpoints.push_back(e.v);
        }
      }
      near = BfsDistances(index_.graph(), endpoints);
    }
    stats = index_.ApplyUpdates(delta);
    if (!near.empty()) {
      cache_.EraseIf([&near](const ResultCache::EntryView& entry) {
        return EditCanChange(near, entry);
      });
    }
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<uint8_t> payload = EncodeUpdateResponse(stats);
  return SendFrame(sock, FrameType::kUpdateResponse, payload);
}

bool QueryServer::SendFrame(Socket& sock, FrameType type,
                            std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame;
  AppendFrame(&frame, type, payload);
  const int32_t timeout = options_.write_timeout_ms == 0
                              ? kNoTimeout
                              : ClampTimeoutMs(options_.write_timeout_ms);
  return sock.SendAll(frame, timeout) == IoStatus::kOk;
}

bool QueryServer::SendError(Socket& sock, ErrorCode code,
                            const std::string& message) {
  const std::vector<uint8_t> payload = EncodeError(code, message);
  return SendFrame(sock, FrameType::kError, payload);
}

QueryServer::StatsSnapshot QueryServer::GetStats() const {
  StatsSnapshot snap;
  snap.queries = queries_.load(std::memory_order_relaxed);
  snap.updates = updates_.load(std::memory_order_relaxed);
  snap.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  snap.degraded = degraded_.load(std::memory_order_relaxed);
  snap.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  snap.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  snap.idle_timeouts = idle_timeouts_.load(std::memory_order_relaxed);
  snap.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  snap.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    snap.active_connections = active_connections_;
  }
  snap.admission_inflight = gate_.inflight();
  snap.admission_queue_depth = gate_.queue_depth();
  snap.cache = cache_.GetStats();
  snap.lat_cached = lat_cached_.GetSnapshot();
  snap.lat_short = lat_short_.GetSnapshot();
  snap.lat_long = lat_long_.GetSnapshot();
  return snap;
}

}  // namespace qbs::server
