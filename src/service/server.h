// osel/service/server.h — the oseld decision service.
//
// The thin driver-over-library split: everything the daemon serves already
// exists in-process (TargetRuntime, compiled plans, batched deciding, obs
// metrics); this class adds the socket front end. One accept
// loop per transport (Unix-domain socket always; loopback TCP behind an
// option) feeds a bounded hand-off queue drained by N worker threads, each
// serving one connection at a time over the versioned wire protocol
// (service/osel_abi.h). Admission control is shed-don't-queue: when the
// hand-off queue is full a new connection is answered Error{Shed} and
// closed instead of waiting.
//
// A decide frame is answered before it is recorded: the worker decides it
// (TargetRuntime::decideColumns), encodes and sends the reply, and
// only then runs the frame's record phase — the explain publish and the
// per-frame stage samples and counters, timed into service.record_s —
// before it reads the connection's next frame. Frames do not memoize:
// every row is decided afresh and no decision cache is touched. So
// a connection's next frame sees everything its earlier frames recorded;
// other connections see it once that worker's record phase has run.
//
// Observability: the server owns an obs::TraceSession, attaches it to the
// runtime, and adds its own service.* counters (connections, sheds, frames,
// decisions, errors, bytes in/out, a batch-rows histogram), the per-stage
// decode/decide/encode/send/request and record histograms, plus capped
// per-client series. The session's Prometheus exposition is served on an
// optional loopback HTTP endpoint (`GET /metrics`) so the renderPrometheus
// text is scraped for real. docs/SERVICE.md covers deployment.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "pad/attribute_db.h"
#include "runtime/target_runtime.h"
#include "service/osel_abi.h"
#include "service/socket.h"

namespace osel::service {

/// Everything configurable about an oseld server.
struct ServiceOptions {
  /// Unix-domain socket path to serve on (required; a stale file from a
  /// crashed daemon is unlinked at start).
  std::string socketPath;
  /// Loopback TCP transport: < 0 disabled (the default), 0 picks a free
  /// port (see tcpPort() after start), > 0 binds that port.
  int tcpPort = -1;
  /// Loopback HTTP metrics endpoint serving `GET /metrics` (Prometheus
  /// text): < 0 disabled, 0 picks a free port, > 0 binds that port.
  int metricsPort = -1;
  /// Worker threads draining the connection queue; each serves one
  /// connection at a time. Clamped to >= 1.
  std::size_t workerThreads = 4;
  /// Accepted connections waiting for a worker beyond this are shed
  /// (Error{Shed} + close) rather than queued without bound.
  std::size_t maxPendingConnections = 64;
  /// Per-connection frame ceiling advertised in HelloAck and enforced by
  /// the decoder. Clamped to kAbsoluteMaxFrameBytes.
  std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
  /// listen(2) backlog for both transports.
  int listenBacklog = 128;
  /// recv(2) timeout applied to accepted metrics-endpoint connections, so
  /// a scraper that connects and then sends nothing (or stalls mid-request)
  /// cannot pin the serial metrics thread. Clamped to >= 1.
  int metricsRecvTimeoutMillis = 2000;
  /// Decide requests whose server wall time (decode start to send end)
  /// exceeds this are captured as wide events in the slow ring (served via
  /// the kFeatureSlowLog RPC / `oselctl slow`). <= 0 disables threshold
  /// capture; client-sampled requests (kTraceFlagSampled) are always
  /// captured.
  double slowThresholdSeconds = 0.050;
  /// Slow-request ring capacity (oldest records overwritten beyond it).
  /// Clamped to >= 1.
  std::size_t slowRingCapacity = 256;
};

/// The daemon core, embeddable for tests and the loopback load generator:
/// construct, registerRegion() the fleet's kernels, start(), and the
/// object serves until stop() (or destruction). start()/stop() cycles are
/// safe to repeat on one instance.
class Server {
 public:
  /// The server owns its TraceSession and overrides `rtOptions.trace` with
  /// it so wire traffic, runtime instrumentation, and the Prometheus
  /// exposition share one registry.
  Server(pad::AttributeDatabase database, runtime::RuntimeOptions rtOptions,
         ServiceOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the transports and spawns the accept/worker/metrics threads.
  /// Throws SocketError when a bind fails; no-op when already running.
  void start();
  /// Stops accepting, sheds queued connections, shuts down in-flight ones,
  /// joins every thread, and unlinks the socket path. Idempotent.
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Forwarded to the runtime; safe while serving (in-flight decides finish
  /// on the entry they found; the registry lock covers only the swap).
  void registerRegion(ir::TargetRegion region);

  [[nodiscard]] runtime::TargetRuntime& runtime() { return runtime_; }
  [[nodiscard]] obs::TraceSession& session() { return session_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Ports actually bound (resolves option value 0); only valid while
  /// running with the respective endpoint enabled.
  [[nodiscard]] std::uint16_t tcpPort() const { return tcpPort_; }
  [[nodiscard]] std::uint16_t metricsPort() const { return metricsPort_; }

  /// Connections accepted / shed since construction (monotonic).
  [[nodiscard]] std::uint64_t connectionsAccepted() const;
  [[nodiscard]] std::uint64_t connectionsShed() const;

 private:
  struct Instruments {
    obs::Counter* connections = nullptr;
    obs::Counter* sheds = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* bytesIn = nullptr;
    obs::Counter* bytesOut = nullptr;
    obs::Histogram* batchRows = nullptr;
    // Per-stage service latency (seconds) for decide-carrying frames, plus
    // the end-to-end wall histogram the stages must account for.
    obs::Histogram* decodeSeconds = nullptr;
    obs::Histogram* decideSeconds = nullptr;
    obs::Histogram* encodeSeconds = nullptr;
    obs::Histogram* sendSeconds = nullptr;
    obs::Histogram* requestSeconds = nullptr;
    /// A decide frame's record phase (the runtime's record tail plus the
    /// per-frame bookkeeping), run after its reply is sent and so outside
    /// request_s.
    obs::Histogram* recordSeconds = nullptr;
  };

  void acceptLoop(Socket& listener);
  void metricsLoop();
  /// Reads one HTTP request and answers it (GET /metrics → Prometheus
  /// text). Throws SocketError on a vanished or stalled-past-timeout peer.
  void serveMetricsConnection(const Socket& connection);
  void workerLoop();
  /// Serves one connection until the peer closes, a fatal wire error, or
  /// stop(). `clientId` keys the per-client metric series.
  void serveConnection(Socket socket, std::uint64_t clientId);

  ServiceOptions options_;
  obs::TraceSession session_;
  runtime::TargetRuntime runtime_;
  Instruments instruments_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  Socket unixListener_;
  Socket tcpListener_;
  Socket metricsListener_;
  std::uint16_t tcpPort_ = 0;
  std::uint16_t metricsPort_ = 0;
  std::vector<std::thread> threads_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<Socket> pending_;
  std::uint64_t nextClientId_ = 0;

  /// fds of connections currently inside serveConnection, so stop() can
  /// shutdown(2) them and unblock workers parked in recv().
  std::mutex activeMutex_;
  std::unordered_set<int> activeFds_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace osel::service
