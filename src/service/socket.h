// osel/service/socket.h — thin RAII wrappers over POSIX sockets.
//
// Just enough plumbing for oseld and its clients: Unix-domain listen and
// connect, loopback TCP listen (the optional transport and the metrics
// endpoint), full-buffer send, and a spin-then-block chunked receive.
// Errors surface as SocketError carrying errno text; connect failures are a
// distinct subtype so CLI callers can map them to the dedicated exit code.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "support/error.h"

namespace osel::service {

/// A socket-layer failure (bind/listen/accept/send/recv) with errno detail.
class SocketError : public std::runtime_error, public osel::Error {
 public:
  explicit SocketError(const std::string& message)
      : std::runtime_error(message) {}

  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::Unknown;
  }
  [[nodiscard]] const char* what() const noexcept override {
    return std::runtime_error::what();
  }
};

/// Failure to reach a server at all (no daemon, bad path, refused). Split
/// from SocketError so `oselctl` can exit 3 on exactly this condition.
class ConnectError final : public SocketError {
 public:
  using SocketError::SocketError;
};

/// How long recvSome polls before it parks the thread in a blocking recv(2).
/// A spin pays off only when the peer answers inside it, so the budget must
/// cover oseld's common turnarounds, measured by the ledger's traced runs on
/// a 4-vCPU KVM guest (`server.request_us`, send included): ~3.7 µs for a
/// scalar frame (serve_hot) and ~35 µs for a 64-row all-miss DecideBatch
/// frame (serve_cold_batch). 50 µs covers the batch with margin while
/// bounding what a wasted spin can burn. What a spin that lands saves is a
/// sleeping-thread wake-up: an empty Ping round trip, which pays two, fell
/// from 12.4 to 5.2 µs on that guest once both ends spun.
inline constexpr std::chrono::microseconds kRecvSpinBudget{50};

/// After a spin lost its CPU, recvSome stops spinning on that socket for
/// this many times as long as the wait had lasted. Yielding hands the CPU
/// to whatever else is runnable on it. When that is an unrelated CPU-bound
/// task (a parallel build or test run) rather than the peer, the yield
/// costs a whole scheduler slice, 2-4 ms with 4 busy vCPUs, where a blocked
/// thread would have been woken at once: spinning regardless cut
/// loadgen_oseld's throughput 10-50x next to four busy loops on a 4-vCPU
/// KVM guest. Pausing for 32 lost CPU times caps that cost at ~3% of the
/// time under steady load. On a quiet guest the CPU is still lost a few
/// times a second, mostly for 0.1-2 ms; the proportional pause keeps ~95% of
/// waits spinning there, where a fixed 100 ms pause kept ~65%.
inline constexpr int kRecvSpinPauseFactor = 32;

/// Owning file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        lastWaitShort_(std::exchange(other.lastWaitShort_, true)),
        spinPausedUntil_(std::exchange(other.spinPausedUntil_, {})) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
      lastWaitShort_ = std::exchange(other.lastWaitShort_, true);
      spinPausedUntil_ = std::exchange(other.spinPausedUntil_, {});
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();
  /// shutdown(SHUT_RDWR): unblocks a peer (or our own thread) parked in
  /// recv() without racing the fd number the way close() would.
  void shutdownBoth();
  /// Whether recvSome's next wait on this socket polls before it blocks.
  [[nodiscard]] bool spinsNextWait() const {
    return spinsAt(std::chrono::steady_clock::now());
  }

 private:
  friend std::size_t recvSome(const Socket& socket, void* buffer,
                              std::size_t size);

  [[nodiscard]] bool spinsAt(std::chrono::steady_clock::time_point now) const {
    return lastWaitShort_ && now >= spinPausedUntil_;
  }

  int fd_ = -1;
  // recvSome's spin hints: receive-side scheduling state, not descriptor
  // state, hence mutable; only the one thread that receives on a socket
  // touches them. recvSome spins only while both allow it.
  /// Whether the previous wait, spun or blocked, ended within the budget.
  mutable bool lastWaitShort_ = true;
  /// No spinning before this time: a spin lost its CPU to another task.
  mutable std::chrono::steady_clock::time_point spinPausedUntil_{};
};

/// Binds + listens on a Unix-domain socket path, unlinking any stale file
/// first. Throws SocketError.
[[nodiscard]] Socket listenUnix(const std::string& path, int backlog);

/// Binds + listens on 127.0.0.1:`port` (port 0 picks a free one). Throws
/// SocketError.
[[nodiscard]] Socket listenTcp(std::uint16_t port, int backlog);

/// The port a listenTcp socket actually bound (resolves port 0).
[[nodiscard]] std::uint16_t boundPort(const Socket& socket);

/// accept(); an invalid Socket when the listener was shut down.
[[nodiscard]] Socket acceptOn(const Socket& listener);

/// Connects to a Unix-domain socket path. Throws ConnectError.
[[nodiscard]] Socket connectUnix(const std::string& path);

/// Connects to 127.0.0.1:`port`. Throws ConnectError.
[[nodiscard]] Socket connectTcp(std::uint16_t port);

/// SO_RCVTIMEO: recv(2) on `socket` fails (EAGAIN → SocketError) after
/// `millis` without data instead of blocking forever. Throws SocketError
/// when the option cannot be set.
void setRecvTimeout(const Socket& socket, int millis);

/// Sends the whole buffer (looping over partial sends). Throws SocketError
/// on a broken connection.
void sendAll(const Socket& socket, std::string_view bytes);

/// Receives at most `size` bytes into `buffer`; returns the byte count, 0 on
/// orderly peer close (or after shutdown(2) of our side, which is how
/// Server::stop() unblocks a waiting worker). Throws SocketError on
/// failure, including an SO_RCVTIMEO expiry.
///
/// Spin, then block: when the socket's previous wait ended within a fixed
/// 50 µs budget, this first polls with non-blocking recv(2) calls, yielding
/// the CPU between them, for up to that budget, and only then parks the
/// thread in a blocking recv(2). A reply that lands inside the budget then
/// costs no sleeping-thread wake-up. A wait that outlasts the budget turns
/// the spin off for the next one, which blocks at once; one wait that ends
/// within the budget turns it back on. An idle or slow peer therefore costs
/// at most one budget of polling, not a spinning core. A spin that lost its
/// CPU to another task for longer than the budget pauses spinning on this
/// socket for kRecvSpinPauseFactor times its wait so far, so a busy host
/// falls back to blocking receives. This is the only receive path of the oseld workers,
/// the metrics endpoint and Client.
[[nodiscard]] std::size_t recvSome(const Socket& socket, void* buffer,
                                   std::size_t size);

}  // namespace osel::service
