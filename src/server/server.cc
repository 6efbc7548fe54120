#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "core/sketch.h"

namespace qbs::server {
namespace {

using Clock = std::chrono::steady_clock;

// Result-cache LRU shards; more shards, less lock contention on hot pairs.
constexpr size_t kCacheShards = 16;
// Advisory retry hint carried in kBusy responses.
constexpr uint32_t kBusyRetryMs = 50;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

int64_t RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : left;
}

/// Tracks one request's deadline budget from the moment its frame was
/// decoded. With no deadline, Expired() is always false and RemainingMs()
/// unbounded.
class DeadlineTracker {
 public:
  explicit DeadlineTracker(uint32_t deadline_ms)
      : bounded_(deadline_ms != kNoDeadline),
        deadline_(Clock::now() + std::chrono::milliseconds(
                                     bounded_ ? deadline_ms : 0)) {}

  bool bounded() const { return bounded_; }
  bool Expired() const { return bounded_ && Clock::now() >= deadline_; }
  /// Admission-wait budget: -1 (wait forever) when unbounded.
  int64_t RemainingForWaitMs() const {
    return bounded_ ? qbs::server::RemainingMs(deadline_) : -1;
  }

 private:
  const bool bounded_;
  const Clock::time_point deadline_;
};

}  // namespace

// ---- AdmissionGate --------------------------------------------------------

AdmissionGate::AdmissionGate(size_t max_inflight, size_t max_queue)
    : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
      max_queue_(max_queue) {}

AdmissionGate::Ticket AdmissionGate::Acquire(size_t* queue_depth) {
  return AcquireFor(-1, queue_depth);
}

AdmissionGate::Ticket AdmissionGate::AcquireFor(int64_t timeout_ms,
                                                size_t* queue_depth) {
  // Waits are explicit predicate loops (not wait(lock, pred) lambdas) so
  // the guarded-field reads stay inside this function's analyzed critical
  // section; queue_depth is reported inline at each decision point for the
  // same reason.
  MutexLock lock(mu_);
  if (shutdown_) {
    if (queue_depth != nullptr) *queue_depth = waiters_;
    return Ticket::kShutdown;
  }
  if (inflight_ < max_inflight_) {
    ++inflight_;
    if (queue_depth != nullptr) *queue_depth = waiters_;
    return Ticket::kAdmitted;
  }
  if (waiters_ >= max_queue_ || timeout_ms == 0) {
    ++rejected_;
    if (queue_depth != nullptr) *queue_depth = waiters_;
    return Ticket::kRejected;
  }
  ++waiters_;
  bool admissible = true;
  if (timeout_ms < 0) {
    while (!shutdown_ && inflight_ >= max_inflight_) cv_.Wait(mu_);
  } else {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!shutdown_ && inflight_ >= max_inflight_) {
      if (!cv_.WaitUntil(mu_, deadline)) break;
    }
    admissible = shutdown_ || inflight_ < max_inflight_;
  }
  --waiters_;
  if (shutdown_) {
    if (queue_depth != nullptr) *queue_depth = waiters_;
    return Ticket::kShutdown;
  }
  if (!admissible) {
    if (queue_depth != nullptr) *queue_depth = waiters_;
    return Ticket::kTimedOut;
  }
  ++inflight_;
  if (queue_depth != nullptr) *queue_depth = waiters_;
  return Ticket::kAdmitted;
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

uint64_t AdmissionGate::rejected() const {
  MutexLock lock(mu_);
  return rejected_;
}

// ---- QueryServer ----------------------------------------------------------

QueryServer::QueryServer(QbsIndex& index, const ServerOptions& options)
    : index_(index),
      options_(options),
      num_vertices_(index.graph().NumVertices()),
      cache_({.capacity_bytes = options.cache_bytes,
              .shards = kCacheShards}),
      gate_(options.max_inflight == 0
                ? std::max<size_t>(std::thread::hardware_concurrency(), 1)
                : options.max_inflight,
            options.max_queue) {}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Start(std::string* error) {
  if (!listener_.Open(options_.host, options_.port, error)) return false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void QueryServer::RequestStop() {
  {
    MutexLock lock(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
    stopping_.store(true, std::memory_order_release);
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
  while (!stop_requested_) {
    if (!stop_cv_.WaitUntil(mu_, deadline)) break;
  }
  return stop_requested_;
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
          const int64_t left = RemainingMs(
              frame_start + std::chrono::milliseconds(options_.read_timeout_ms));
          timeout = static_cast<int32_t>(left);
        }
      } else if (options_.idle_timeout_ms > 0) {
        timeout = static_cast<int32_t>(options_.idle_timeout_ms);
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
  const DeadlineTracker deadline(request.deadline_ms);
  // Boundary 1: on receipt. deadline_ms == 0 ("already expired") lands
  // here — the request is never executed.
  if (deadline.Expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return SendError(sock, ErrorCode::kDeadlineExceeded,
                     "deadline expired before execution");
  }

  // Graceful degradation: past the saturation threshold, answer from the
  // labelling alone instead of joining the admission queue.
  if (options_.degrade_after_inflight > 0 &&
      gate_.inflight() >= options_.degrade_after_inflight) {
    return ServeDegraded(sock, request);
  }

  size_t queue_depth = 0;
  switch (gate_.AcquireFor(deadline.RemainingForWaitMs(), &queue_depth)) {
    case AdmissionGate::Ticket::kRejected: {
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<uint8_t> payload =
          EncodeBusy(kBusyRetryMs,
                     static_cast<uint32_t>(std::min<size_t>(
                         queue_depth, std::numeric_limits<uint32_t>::max())));
      return SendFrame(sock, FrameType::kBusy, payload);
    }
    case AdmissionGate::Ticket::kTimedOut:
      // Boundary 2: the admission wait consumed the whole budget.
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      return SendError(sock, ErrorCode::kDeadlineExceeded,
                       "deadline expired waiting for admission");
    case AdmissionGate::Ticket::kShutdown: {
      SendError(sock, ErrorCode::kShuttingDown, "server shutting down");
      return false;
    }
    case AdmissionGate::Ticket::kAdmitted:
      break;
  }

  // Injected query slowness (chaos lever): the sleep holds the admission
  // slot, exactly like a genuinely slow query would.
  if (injector != nullptr) {
    const uint32_t delay_ms = injector->OnQueryDelayMs();
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  // Boundary 3: after any slowness, just before execution.
  if (deadline.Expired()) {
    gate_.Release();
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return SendError(sock, ErrorCode::kDeadlineExceeded,
                     "deadline expired before execution");
  }

  const uint64_t start = NowNanos();
  QueryResponse response;
  bool cache_hit = false;
  const bool cacheable = options_.cache_bytes > 0 &&
                         (request.flags & kQueryFlagNoCache) == 0;
  {
    // One reader critical section from cache lookup through cache insert:
    // an update (writer) can therefore never interleave between this
    // query's execution and its insert, so the post-update cache clear is
    // final — no stale response sneaks in behind it.
    ReaderLock read_lock(index_mu_);
    if (cacheable) cache_hit = cache_.Lookup(request, &response);
    if (!cache_hit) {
      response = index_.Query(request);
      if (cacheable) cache_.Insert(request, response);
    }
  }
  gate_.Release();
  queries_.fetch_add(1, std::memory_order_relaxed);

  const uint64_t elapsed = NowNanos() - start;
  if (cache_hit) {
    lat_cached_.Record(elapsed);
  } else if (response.stats.TotalEdgesScanned() == 0) {
    lat_short_.Record(elapsed);  // pruned or trivial: no edge scanned
  } else {
    lat_long_.Record(elapsed);  // a real guided search ran
  }

  const std::vector<uint8_t> payload = EncodeQueryResponse(response);
  return SendFrame(sock, FrameType::kQueryResponse, payload);
}

bool QueryServer::ServeDegraded(Socket& sock, const QueryRequest& request) {
  const uint64_t start = NowNanos();
  const bool cacheable = options_.cache_bytes > 0 &&
                         (request.flags & kQueryFlagNoCache) == 0;
  QueryResponse response;
  {
    // Same reader discipline as ServeQuery: the labelling read and the
    // cache lookup/insert must not interleave with an update's apply +
    // clear.
    ReaderLock read_lock(index_mu_);
    // A cache hit is cheaper than the label scan and exact — serve it
    // even under saturation.
    if (cacheable && cache_.Lookup(request, &response)) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      lat_cached_.Record(NowNanos() - start);
    } else {
      response.spg.u = request.u;
      response.spg.v = request.v;
      if (request.u == request.v) {
        // Trivially exact, identical to the fault-free answer: no degraded
        // flag.
        response.spg.distance = 0;
      } else {
        const LabelBound bound = ComputeLabelBound(
            index_.labeling(), index_.meta_graph(), request.u, request.v);
        response.spg.distance = bound.upper;
        // Labels that certify the distance exactly, for a caller wanting
        // only the distance, give the fault-free answer: serve it
        // undegraded.
        if (request.mode != QueryMode::kDistance || request.budget != 0 ||
            bound.upper == kUnreachable || bound.lower != bound.upper) {
          response.degraded_lower = bound.lower;
          response.flags |= kResponseFlagDegraded;
        }
      }
      // Degraded answers are NEVER cached: the cache must only ever replay
      // exact payloads.
      if (response.degraded()) {
        degraded_.fetch_add(1, std::memory_order_relaxed);
      } else {
        queries_.fetch_add(1, std::memory_order_relaxed);
        if (cacheable) cache_.Insert(request, response);
      }
      lat_short_.Record(NowNanos() - start);
    }
  }
  const std::vector<uint8_t> payload = EncodeQueryResponse(response);
  return SendFrame(sock, FrameType::kQueryResponse, payload);
}

bool QueryServer::ServeUpdate(Socket& sock, const GraphDelta& delta) {
  if (!index_.updates_enabled()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return SendError(sock, ErrorCode::kBadRequest,
                     "index was not loaded in updatable mode");
  }
  UpdateStats stats;
  {
    // Writer side: queries drain, the delta applies, and the cache is
    // cleared before any reader can run again — so no answer computed (or
    // cached) against the pre-update index is ever served afterwards.
    // ApplyUpdates runs ParallelFor while this is held — legal because
    // the pool rank (kThreadPool) sits above kIndex.
    WriterLock write_lock(index_mu_);
    stats = index_.ApplyUpdates(delta);
    if (stats.AppliedTotal() > 0) cache_.Clear();
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
                              : static_cast<int32_t>(options_.write_timeout_ms);
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
