#include "service/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace osel::service {

namespace {

std::string withErrno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Socket listenUnix(const std::string& path, int backlog) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw SocketError("listenUnix: socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

  Socket socket(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!socket.valid()) throw SocketError(withErrno("listenUnix: socket"));
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; unlink unconditionally —
  // a *live* daemon on the path is an operator error either way.
  ::unlink(path.c_str());
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw SocketError(withErrno("listenUnix: bind " + path));
  }
  if (::listen(socket.fd(), backlog) != 0) {
    throw SocketError(withErrno("listenUnix: listen " + path));
  }
  return socket;
}

Socket listenTcp(std::uint16_t port, int backlog) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw SocketError(withErrno("listenTcp: socket"));
  const int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw SocketError(withErrno("listenTcp: bind 127.0.0.1:" +
                                std::to_string(port)));
  }
  if (::listen(socket.fd(), backlog) != 0) {
    throw SocketError(withErrno("listenTcp: listen"));
  }
  return socket;
}

std::uint16_t boundPort(const Socket& socket) {
  sockaddr_in address{};
  socklen_t size = sizeof(address);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&address),
                    &size) != 0) {
    throw SocketError(withErrno("boundPort: getsockname"));
  }
  return ntohs(address.sin_port);
}

Socket acceptOn(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // EBADF/EINVAL after the listener was shut down is the orderly stop
    // path, not an error worth throwing on.
    return Socket();
  }
}

Socket connectUnix(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw ConnectError("connectUnix: socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  Socket socket(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!socket.valid()) throw ConnectError(withErrno("connectUnix: socket"));
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw ConnectError(withErrno("connectUnix: connect " + path));
  }
  return socket;
}

Socket connectTcp(std::uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw ConnectError(withErrno("connectTcp: socket"));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw ConnectError(withErrno("connectTcp: connect 127.0.0.1:" +
                                 std::to_string(port)));
  }
  return socket;
}

void setRecvTimeout(const Socket& socket, int millis) {
  timeval timeout{};
  timeout.tv_sec = millis / 1000;
  timeout.tv_usec = static_cast<suseconds_t>(millis % 1000) * 1000;
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout)) != 0) {
    throw SocketError(withErrno("setRecvTimeout: setsockopt"));
  }
}

void sendAll(const Socket& socket, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as an error on this
    // connection's thread, not SIGPIPE the whole daemon.
    const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(withErrno("sendAll: send"));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t recvSome(const Socket& socket, void* buffer, std::size_t size) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  if (socket.spinsAt(start)) {
    // sched_yield(), not a pause loop: the peer's thread is often woken on
    // this very CPU, and a pause loop keeps it off the CPU for the whole
    // budget.
    for (;;) {
      const ssize_t n = ::recv(socket.fd(), buffer, size, MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        throw SocketError(withErrno("recvSome: recv"));
      }
      const Clock::time_point now = Clock::now();
      const Clock::duration waited = now - start;
      // Polling alone cannot overrun the budget this far: another task
      // took the CPU during a sched_yield() and ran for a scheduler slice.
      if (waited > 2 * kRecvSpinBudget) {
        socket.spinPausedUntil_ = now + kRecvSpinPauseFactor * waited;
      }
      if (n >= 0) {
        socket.lastWaitShort_ = waited < kRecvSpinBudget;
        return static_cast<std::size_t>(n);
      }
      if (waited >= kRecvSpinBudget) break;
      ::sched_yield();
    }
  }
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buffer, size, 0);
    if (n >= 0) {
      socket.lastWaitShort_ = Clock::now() - start < kRecvSpinBudget;
      return static_cast<std::size_t>(n);
    }
    if (errno == EINTR) continue;
    throw SocketError(withErrno("recvSome: recv"));
  }
}

}  // namespace osel::service
