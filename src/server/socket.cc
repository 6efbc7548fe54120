#include "server/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace qbs::server {
namespace {

using Clock = std::chrono::steady_clock;

// strerror_r has two incompatible signatures (XSI returns int and fills the
// buffer; GNU returns the message pointer); overloads on the return type
// pick the right interpretation at compile time. Each libc uses exactly one,
// so the other overload is always unused.
[[maybe_unused]] std::string StrerrorResult(int rc, const char* buf,
                                            int errnum) {
  return rc == 0 ? std::string(buf)
                 : "errno " + std::to_string(errnum);
}
[[maybe_unused]] std::string StrerrorResult(const char* msg,
                                            const char* /*buf*/,
                                            int /*errnum*/) {
  return msg;
}

}  // namespace

int32_t RemainingMs(Clock::time_point deadline) {
  return ClampTimeoutMs(
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count());
}

std::string ErrnoString(int errnum) {
  char buf[256];
  buf[0] = '\0';
  return StrerrorResult(strerror_r(errnum, buf, sizeof(buf)), buf, errnum);
}

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      injector_(std::exchange(other.injector_, nullptr)),
      last_errno_(other.last_errno_),
      recv_timeout_ms_(
          std::exchange(other.recv_timeout_ms_, kRecvTimeoutUnknown)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    injector_ = std::exchange(other.injector_, nullptr);
    last_errno_ = other.last_errno_;
    recv_timeout_ms_ =
        std::exchange(other.recv_timeout_ms_, kRecvTimeoutUnknown);
  }
  return *this;
}

Socket Socket::ConnectTcp(const std::string& host, uint16_t port,
                          std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + ErrnoString(errno);
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad address: " + host;
    ::close(fd);
    return Socket();
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error != nullptr) {
      *error = std::string("connect: ") + ErrnoString(errno);
    }
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

void Socket::SetNoDelay() {
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_timeout_ms_ = kRecvTimeoutUnknown;
}

IoStatus Socket::PollFor(short events, int32_t timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = events;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return IoStatus::kOk;  // readable/writable (or HUP: let the
                                       // syscall surface the close)
    if (rc == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;
    last_errno_ = errno;
    return IoStatus::kError;
  }
}

bool Socket::SetRecvTimeout(int32_t timeout_ms) {
  if (timeout_ms == recv_timeout_ms_) return true;
  timeval tv{};  // zero: block forever
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    last_errno_ = errno;
    recv_timeout_ms_ = kRecvTimeoutUnknown;
    return false;
  }
  recv_timeout_ms_ = timeout_ms;
  return true;
}

bool Socket::ApplyFault(const IoFault& fault, size_t* want) {
  switch (fault.kind) {
    case IoFault::Kind::kNone:
      break;
    case IoFault::Kind::kShort:
      *want = std::max<size_t>(1, std::min(fault.cap, *want));
      break;
    case IoFault::Kind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.stall_ms));
      break;
    case IoFault::Kind::kReset:
      // Make the injected reset real: the peer observes the torn stream,
      // and every later op on this socket fails too.
      ShutdownBoth();
      last_errno_ = ECONNRESET;
      return false;
  }
  return true;
}

IoStatus Socket::SendAll(std::span<const uint8_t> data, int32_t timeout_ms) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
  size_t sent = 0;
  while (sent < data.size()) {
    size_t want = data.size() - sent;
    if (injector_ != nullptr && !ApplyFault(injector_->OnSend(want), &want)) {
      return IoStatus::kError;
    }
    for (;;) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, want, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n >= 0) {
        sent += static_cast<size_t>(n);
        break;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        last_errno_ = errno;
        return IoStatus::kError;
      }
      // The send buffer is full: wait for room within the remaining budget.
      const IoStatus ready =
          PollFor(POLLOUT, bounded ? RemainingMs(deadline) : kNoTimeout);
      if (ready != IoStatus::kOk) return ready;
    }
  }
  return IoStatus::kOk;
}

IoStatus Socket::RecvSome(uint8_t* buf, size_t capacity, size_t* received,
                          int32_t timeout_ms) {
  *received = 0;
  size_t want = capacity;
  if (injector_ != nullptr && !ApplyFault(injector_->OnRecv(want), &want)) {
    return IoStatus::kError;
  }
  if (timeout_ms < 0) timeout_ms = kNoTimeout;
  // SO_RCVTIMEO of zero means "forever", so a due deadline makes a
  // non-blocking recv instead.
  const int flags = timeout_ms == 0 ? MSG_DONTWAIT : 0;
  Clock::time_point deadline{};
  if (timeout_ms > 0) {
    deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  int32_t wait_ms = timeout_ms;
  for (;;) {
    if (flags == 0 && !SetRecvTimeout(wait_ms)) return IoStatus::kError;
    const ssize_t n = ::recv(fd_, buf, want, flags);
    if (n > 0) {
      *received = static_cast<size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      last_errno_ = errno;
      return IoStatus::kError;
    }
    // The kernel counts SO_RCVTIMEO in scheduler ticks and, when ticks run
    // late, can end it a tick early: wait out the rest, so that kTimeout
    // means the whole timeout passed.
    if (timeout_ms > 0) {
      wait_ms = RemainingMs(deadline);
      if (wait_ms > 0) continue;
    }
    return IoStatus::kTimeout;
  }
}

bool ListenSocket::Open(const std::string& host, uint16_t port,
                        std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + ErrnoString(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad listen address: " + host;
    CloseFd(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = std::string("bind: ") + ErrnoString(errno);
    CloseFd(fd);
    return false;
  }
  if (::listen(fd, 128) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + ErrnoString(errno);
    CloseFd(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + ErrnoString(errno);
    }
    CloseFd(fd);
    return false;
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return true;
}

int ListenSocket::Accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;  // listener shut down, or unrecoverable
  }
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace qbs::server
