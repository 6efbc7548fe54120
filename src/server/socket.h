// RAII TCP socket with the I/O discipline the serving stack requires
// everywhere: every syscall rides out EINTR, every send is SIGPIPE-safe
// (MSG_NOSIGNAL) and resumes partial writes, and every operation can be
// bounded by a poll-based timeout so one stalled peer can never pin a
// thread forever (the slowloris defense). Both the daemon (server.cc) and
// the client (client.cc) speak to the network exclusively through this
// class — raw ::send/::recv calls are confined to socket.cc.
//
// An optional FaultInjector (server/fault_injection.h) intercepts each
// operation, which is how the chaos tests drive short reads/writes,
// stalls, resets, and torn frames through the exact code paths production
// traffic uses.

#ifndef QBS_SERVER_SOCKET_H_
#define QBS_SERVER_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "server/fault_injection.h"

namespace qbs::server {

/// Outcome of a socket operation.
enum class IoStatus : uint8_t {
  kOk,       // operation completed
  kTimeout,  // the poll deadline expired before the operation completed
  kClosed,   // orderly EOF from the peer (recv only)
  kError,    // syscall failure (or injected reset); last_errno() says why
};

/// Thread-safe strerror: connection threads report errno concurrently, and
/// strerror(3) may share a static buffer (clang-tidy concurrency-mt-unsafe).
std::string ErrnoString(int errnum);

/// Timeout convention: milliseconds; kNoTimeout (-1) blocks forever,
/// 0 means "already due" (useful when a deadline has run out).
inline constexpr int32_t kNoTimeout = -1;

class Socket {
 public:
  Socket() = default;
  /// Adopts an already-open fd (e.g. from accept()).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking TCP connect to host:port (numeric IPv4). Returns an invalid
  /// socket (filling *error) on failure.
  static Socket ConnectTcp(const std::string& host, uint16_t port,
                           std::string* error);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Installs a fault hook (not owned; must outlive the socket's use).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  void SetNoDelay();

  /// Sends all of `data`, resuming partial writes, riding out EINTR, and
  /// never raising SIGPIPE. `timeout_ms` bounds the TOTAL operation:
  /// kTimeout means the peer stopped draining mid-frame, after which the
  /// stream is torn and the connection should be closed.
  IoStatus SendAll(std::span<const uint8_t> data, int32_t timeout_ms);

  /// Receives up to `capacity` bytes, waiting at most `timeout_ms` for the
  /// first byte. kClosed (with *received = 0) is orderly EOF.
  IoStatus RecvSome(uint8_t* buf, size_t capacity, size_t* received,
                    int32_t timeout_ms);

  void Close();

  /// errno captured at the last kError (ECONNRESET for injected resets).
  int last_errno() const { return last_errno_; }

 private:
  /// Waits for `events` (POLLIN/POLLOUT) within the remaining budget.
  IoStatus PollFor(short events, int32_t timeout_ms);
  /// Shuts down both directions without closing the fd (an injected
  /// reset).
  void ShutdownBoth();

  int fd_ = -1;
  FaultInjector* injector_ = nullptr;  // not owned
  int last_errno_ = 0;
};

/// Listening TCP socket: confines the listen-side syscalls (socket, bind,
/// listen, accept) to socket.cc the same way Socket confines the stream
/// side, so the qbs_lint raw-socket rule holds with an empty allowlist.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds host:port (numeric IPv4; port 0 picks an ephemeral port) and
  /// starts listening. Returns false and fills *error on failure.
  bool Open(const std::string& host, uint16_t port, std::string* error);

  bool valid() const { return fd_ >= 0; }

  /// The actually-bound port (resolves port 0 to the kernel's pick).
  uint16_t bound_port() const { return port_; }

  /// Blocks until a connection arrives. Returns the accepted fd, or -1
  /// once the listener was Shutdown()/Close()d or accept fails
  /// unrecoverably; EINTR is retried internally.
  int Accept();

  /// Unblocks any Accept() in flight without closing the fd (shutdown on
  /// a listening socket unblocks accept on Linux).
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Shuts down both directions of an fd owned elsewhere — wakes a thread
/// blocked in recv/poll on it. The server's stop path uses this on
/// accepted fds whose owning Socket lives on a connection thread.
void ShutdownFd(int fd);

/// Closes an fd that was never handed to a Socket.
void CloseFd(int fd);

}  // namespace qbs::server

#endif  // QBS_SERVER_SOCKET_H_
