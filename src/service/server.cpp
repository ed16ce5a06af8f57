// oseld's server loop (service/server.h). Each connection is served by one
// worker: decode a frame, decide, encode the reply, flush, then record.
// Every decide frame goes to TargetRuntime::decideColumns as
// slot-major value columns: a DecideBatch frame's columns as they are, a
// DecideRequest's bindings as a one-row frame (one name and one value per
// binding, in wire order, so a duplicate symbol binds its last value). No
// Bindings map is built. The runtime decides the frame as one region group,
// every row afresh (decideColumns does not memoize, so no frame probes or
// fills a decision cache), and hands back its record tail (the explain
// publish), which the worker runs with its own per-frame bookkeeping once
// the reply is sent: after the flush, or before the connection's next frame
// when several arrive in one read.
#include "service/server.h"

#include <algorithm>
#include <cstdio>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "obs/export.h"
#include "service/codec.h"
#include "support/check.h"

namespace osel::service {

namespace {

constexpr std::uint32_t kSupportedFeatures =
    kFeatureBatch | kFeatureStats | kFeaturePrometheus | kFeatureSlowLog;

/// Per-client counter series (service.client.<id>.*) are only created for
/// the first this-many connections, bounding metric cardinality under
/// connection churn; the aggregate series always update.
constexpr std::uint64_t kMaxClientMetricSeries = 64;

/// What the server records for the one answered decide frame of a
/// connection whose record phase has not run yet.
struct FrameRecord {
  bool pending = false;  ///< the frame's reply was encoded
  bool batch = false;    ///< a DecideBatch frame (batch_rows sample)
  bool sampled = false;  ///< client set kTraceFlagSampled
  std::uint64_t requestId = 0;
  std::uint64_t traceId = 0;
  std::uint32_t rows = 0;
  std::int64_t t0 = 0;  ///< decode start
  std::int64_t t1 = 0;  ///< decide start
  std::int64_t t2 = 0;  ///< encode start
  std::int64_t t3 = 0;  ///< encode end
};

/// One decide-carrying frame's stage times, parked until the reply flush
/// closes its wall clock (send happens per flush, not per frame).
struct PendingCapture {
  obs::SlowRequestRecord record;  ///< stages filled, send/wall pending
  std::int64_t startNs = 0;       ///< decode start (wall origin)
  std::int64_t encodeEndNs = 0;   ///< encode end (send stage origin)
  bool sampled = false;           ///< client set kTraceFlagSampled
};

/// Best-effort single-frame reply on a connection we are about to drop
/// (shed notices, pre-handshake protocol errors). Failures are ignored —
/// the peer may already be gone.
void trySendError(const Socket& socket, WireCode code,
                  std::string_view message) {
  try {
    std::string out;
    encodeError(out, code, message);
    sendAll(socket, out);
  } catch (const SocketError&) {
  }
}

runtime::RuntimeOptions withTrace(runtime::RuntimeOptions options,
                                  obs::TraceSession* session) {
  options.trace = session;
  return options;
}

}  // namespace

Server::Server(pad::AttributeDatabase database,
               runtime::RuntimeOptions rtOptions, ServiceOptions options)
    : options_(std::move(options)),
      session_(obs::TraceOptions{
          .slowCapacity = std::max<std::size_t>(1, options_.slowRingCapacity)}),
      runtime_(std::move(database), withTrace(std::move(rtOptions), &session_)) {
  support::require(!options_.socketPath.empty(),
                   "service::Server: socketPath must be set");
  options_.workerThreads = std::max<std::size_t>(1, options_.workerThreads);
  options_.maxFrameBytes =
      std::min(options_.maxFrameBytes, kAbsoluteMaxFrameBytes);
  // 0 would mean "no timeout" to SO_RCVTIMEO, reopening the stalled-scraper
  // hang this option exists to prevent.
  options_.metricsRecvTimeoutMillis =
      std::max(1, options_.metricsRecvTimeoutMillis);
  options_.slowRingCapacity =
      std::max<std::size_t>(1, options_.slowRingCapacity);
  obs::MetricsRegistry& metrics = session_.metrics();
  instruments_.connections = &metrics.counter("service.connections");
  instruments_.sheds = &metrics.counter("service.sheds");
  instruments_.frames = &metrics.counter("service.frames");
  instruments_.decisions = &metrics.counter("service.decisions");
  instruments_.errors = &metrics.counter("service.errors");
  instruments_.bytesIn = &metrics.counter("service.bytes_in");
  instruments_.bytesOut = &metrics.counter("service.bytes_out");
  instruments_.batchRows = &metrics.histogram(
      "service.batch_rows", {1.0, 8.0, 32.0, 64.0, 256.0, 1024.0, 4096.0});
  // Stage latency buckets: ~3x steps from 1 us to 1 s so p50/p99/p999 stay
  // resolvable from the cumulative counts (obs::quantileFromBuckets).
  const std::vector<double> stageBounds = {1e-6, 3e-6, 1e-5, 3e-5, 1e-4,
                                           3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                                           1e-1, 3e-1, 1.0};
  instruments_.decodeSeconds =
      &metrics.histogram("service.decode_s", stageBounds);
  instruments_.decideSeconds =
      &metrics.histogram("service.decide_s", stageBounds);
  instruments_.encodeSeconds =
      &metrics.histogram("service.encode_s", stageBounds);
  instruments_.sendSeconds = &metrics.histogram("service.send_s", stageBounds);
  instruments_.requestSeconds =
      &metrics.histogram("service.request_s", stageBounds);
  instruments_.recordSeconds =
      &metrics.histogram("service.record_s", stageBounds);
}

Server::~Server() { stop(); }

void Server::registerRegion(ir::TargetRegion region) {
  runtime_.registerRegion(std::move(region));
}

std::uint64_t Server::connectionsAccepted() const {
  return accepted_.load(std::memory_order_relaxed);
}

std::uint64_t Server::connectionsShed() const {
  return shed_.load(std::memory_order_relaxed);
}

void Server::start() {
  if (running()) return;
  stopping_.store(false, std::memory_order_release);
  unixListener_ = listenUnix(options_.socketPath, options_.listenBacklog);
  if (options_.tcpPort >= 0) {
    tcpListener_ = listenTcp(static_cast<std::uint16_t>(options_.tcpPort),
                             options_.listenBacklog);
    tcpPort_ = boundPort(tcpListener_);
  }
  if (options_.metricsPort >= 0) {
    metricsListener_ = listenTcp(
        static_cast<std::uint16_t>(options_.metricsPort), options_.listenBacklog);
    metricsPort_ = boundPort(metricsListener_);
  }
  threads_.emplace_back([this] { acceptLoop(unixListener_); });
  if (tcpListener_.valid()) {
    threads_.emplace_back([this] { acceptLoop(tcpListener_); });
  }
  if (metricsListener_.valid()) {
    threads_.emplace_back([this] { metricsLoop(); });
  }
  for (std::size_t i = 0; i < options_.workerThreads; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
  running_.store(true, std::memory_order_release);
}

void Server::stop() {
  if (!running() && threads_.empty()) return;
  {
    // Under queueMutex_, or the notify_all() below can be lost: a worker
    // that has just found workerLoop's wait predicate false, but has not yet
    // parked, still holds the mutex. Storing the flag under it means that
    // worker either sees the flag or is already parked when we notify;
    // stored outside, the notify can land in that gap and join() then
    // waits forever.
    std::lock_guard<std::mutex> lock(queueMutex_);
    stopping_.store(true, std::memory_order_release);
  }
  // Wake the accept loops (shutdown, not close: the fds must stay reserved
  // until those threads observed the wakeup, or a racing open could reuse
  // the number under them).
  unixListener_.shutdownBoth();
  tcpListener_.shutdownBoth();
  metricsListener_.shutdownBoth();
  // Unblock workers parked in recv() on live connections.
  {
    std::lock_guard<std::mutex> lock(activeMutex_);
    for (const int fd : activeFds_) ::shutdown(fd, SHUT_RDWR);
  }
  queueCv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  // Queued-but-unserved connections are dropped on the floor; nobody will
  // ever read their frames.
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    pending_.clear();
  }
  unixListener_.close();
  tcpListener_.close();
  metricsListener_.close();
  ::unlink(options_.socketPath.c_str());
  running_.store(false, std::memory_order_release);
}

void Server::acceptLoop(Socket& listener) {
  for (;;) {
    Socket connection = acceptOn(listener);
    if (!connection.valid() || stopping_.load(std::memory_order_acquire)) {
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    instruments_.connections->add();
    std::unique_lock<std::mutex> lock(queueMutex_);
    if (pending_.size() >= options_.maxPendingConnections) {
      lock.unlock();
      // Shed, don't queue: tell the client why before hanging up.
      shed_.fetch_add(1, std::memory_order_relaxed);
      instruments_.sheds->add();
      trySendError(connection, WireCode::Shed,
                   "oseld: connection queue full, try again");
      continue;  // connection closes here
    }
    pending_.push_back(std::move(connection));
    lock.unlock();
    queueCv_.notify_one();
  }
}

void Server::workerLoop() {
  for (;;) {
    Socket connection;
    std::uint64_t clientId = 0;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      connection = std::move(pending_.front());
      pending_.pop_front();
      clientId = nextClientId_++;
    }
    serveConnection(std::move(connection), clientId);
  }
}

void Server::serveConnection(Socket socket, std::uint64_t clientId) {
  {
    std::lock_guard<std::mutex> lock(activeMutex_);
    activeFds_.insert(socket.fd());
  }
  // Capped per-client series: aggregate counters always update; named
  // per-client ones only for the first kMaxClientMetricSeries connections
  // so churn cannot grow the registry without bound.
  obs::Counter* clientFrames = nullptr;
  obs::Counter* clientDecisions = nullptr;
  if (clientId < kMaxClientMetricSeries) {
    const std::string prefix = "service.client." + std::to_string(clientId);
    clientFrames = &session_.metrics().counter(prefix + ".frames");
    clientDecisions = &session_.metrics().counter(prefix + ".decisions");
  }

  FrameDecoder decoder(options_.maxFrameBytes);
  std::string payload;
  std::string out;
  bool helloDone = false;
  bool closing = false;
  // Per-connection scratch, reused across frames.
  std::string regionName;
  std::vector<std::string_view> scalarNames;  ///< a DecideRequest's columns
  std::vector<std::int64_t> scalarValues;
  DecideRequestView requestView;
  DecideBatchView batchView;
  std::vector<runtime::Decision> decisions;
  runtime::PendingRecord tail;  ///< the last decide frame's runtime tail
  FrameRecord frame;
  std::vector<PendingCapture> pendingCaptures;
  char buffer[64 * 1024];

  const std::int64_t slowThresholdNs =
      options_.slowThresholdSeconds > 0.0
          ? static_cast<std::int64_t>(options_.slowThresholdSeconds * 1e9)
          : -1;
  // The record phase of the answered frame, if any: the runtime's tail, the
  // frame's decode/decide/encode stage times and counters, and its
  // wide-event record, parked until the flush closes the send stage and
  // the wall clock. Runs after the flush that sent the frame's reply, or
  // before the next frame when several arrive in one read, and always
  // before `decisions` and `regionName` move on to the next frame (the
  // spans, the wide event and its row tally read them). Timed into
  // service.record_s.
  const auto recordFrame = [&] {
    if (!frame.pending) {
      tail.run();  // a frame whose reply failed to encode
      return;
    }
    frame.pending = false;
    const std::int64_t recordStart = session_.nowNs();
    tail.run();
    if (frame.batch) {
      instruments_.batchRows->record(static_cast<double>(frame.rows));
    }
    instruments_.decisions->add(frame.rows);
    if (clientDecisions != nullptr) clientDecisions->add(frame.rows);
    const std::int64_t t0 = frame.t0;
    const std::int64_t t1 = frame.t1;
    const std::int64_t t2 = frame.t2;
    const std::int64_t t3 = frame.t3;
    instruments_.decodeSeconds->record(static_cast<double>(t1 - t0) * 1e-9);
    instruments_.decideSeconds->record(static_cast<double>(t2 - t1) * 1e-9);
    instruments_.encodeSeconds->record(static_cast<double>(t3 - t2) * 1e-9);
    if (frame.sampled) {
      const auto client = static_cast<double>(clientId);
      const auto trace = static_cast<double>(frame.traceId);
      session_.recordSpan("service.decode", "service", regionName, t0, t1 - t0,
                          {"client", client}, {"trace_id", trace});
      session_.recordSpan("service.decide", "service", regionName, t1, t2 - t1,
                          {"client", client}, {"trace_id", trace});
      session_.recordSpan("service.encode", "service", regionName, t2, t3 - t2,
                          {"client", client}, {"trace_id", trace});
    }
    PendingCapture capture;
    capture.startNs = t0;
    capture.encodeEndNs = t3;
    capture.sampled = frame.sampled;
    obs::SlowRequestRecord& record = capture.record;
    record.setRegion(regionName);
    record.traceId = frame.traceId;
    record.clientId = clientId;
    record.requestId = frame.requestId;
    record.rows = frame.rows;
    record.stateEpoch = runtime_.selector().policy().refits();
    record.decodeNs = t1 - t0;
    record.decideNs = t2 - t1;
    record.encodeNs = t3 - t2;
    for (std::uint32_t row = 0; row < frame.rows; ++row) {
      const runtime::Decision& decision = decisions[row];
      if (decision.device == runtime::Device::Gpu) record.gpuDecisions += 1;
      if (!decision.valid) record.invalidDecisions += 1;
    }
    pendingCaptures.push_back(capture);
    instruments_.recordSeconds->record(
        static_cast<double>(session_.nowNs() - recordStart) * 1e-9);
  };

  try {
    while (!closing && !stopping_.load(std::memory_order_acquire)) {
      const std::size_t got = recvSome(socket, buffer, sizeof(buffer));
      if (got == 0) break;  // orderly peer close
      instruments_.bytesIn->add(got);
      decoder.append(buffer, got);

      FrameHeader header;
      for (;;) {
        try {
          if (!decoder.next(header, payload)) break;
        } catch (const CodecError& error) {
          // A bad length prefix desynchronizes the stream; answer and drop.
          // After the handshake the Error carries a (zeroed) trace block.
          const TraceContextBlock unknown;
          encodeError(out, error.wireCode(), error.what(),
                      helloDone ? &unknown : nullptr);
          instruments_.errors->add();
          closing = true;
          break;
        }
        // Pipelined frames: the previous one was answered into `out`, not
        // sent yet; it records before this frame reads anything.
        recordFrame();
        instruments_.frames->add();
        if (clientFrames != nullptr) clientFrames->add();
        const auto type = static_cast<FrameType>(header.type);

        if (!helloDone) {
          if (type != FrameType::Hello) {
            encodeError(out, WireCode::ExpectedHello,
                        "oseld: first frame must be Hello");
            instruments_.errors->add();
            closing = true;
            break;
          }
          try {
            const HelloFrame hello = parseHello(payload);
            if (hello.versionMin > kProtocolVersion ||
                hello.versionMax < kProtocolVersion) {
              encodeError(out, WireCode::UnsupportedVersion,
                          "oseld: no common protocol version (server speaks v" +
                              std::to_string(kProtocolVersion) + ")");
              instruments_.errors->add();
              closing = true;
              break;
            }
            HelloAckFrame ack;
            ack.featureBits = hello.featureBits & kSupportedFeatures;
            ack.maxFrameBytes = options_.maxFrameBytes;
            encodeHelloAck(out, ack);
            helloDone = true;
          } catch (const CodecError& error) {
            encodeError(out, error.wireCode(), error.what());
            instruments_.errors->add();
            closing = true;
            break;
          }
          continue;
        }

        // Post-handshake dispatch. Frame boundaries survive payload-level
        // errors (the decoder already consumed the frame), so BadFrame
        // answers keep the connection usable. `outMark` lets the catch
        // blocks discard a partially encoded reply (e.g. a batch whose
        // encoding tripped the absolute frame ceiling) — sending half a
        // frame followed by an Error frame would desync the peer.
        // Every post-handshake decide reply and Error carries a
        // TraceContextBlock; `frameTrace` holds the current frame's (a
        // zeroed block until its request parsed).
        const std::size_t outMark = out.size();
        TraceContextBlock frameTrace;
        try {
          switch (type) {
            case FrameType::Ping:
              encodePong(out);
              break;
            case FrameType::DecideRequest: {
              const std::int64_t t0 = session_.nowNs();
              parseDecideRequest(payload, requestView);
              frameTrace = requestView.trace;
              regionName.assign(requestView.region);
              scalarNames.clear();
              scalarValues.clear();
              for (const auto& binding : requestView.bindings) {
                scalarNames.push_back(binding.symbol);
                scalarValues.push_back(binding.value);
              }
              decisions.resize(1);
              const std::int64_t t1 = session_.nowNs();
              tail = runtime_.decideColumns(
                  regionName, scalarNames,
                  reinterpret_cast<const char*>(scalarValues.data()), 1,
                  decisions);
              const std::int64_t t2 = session_.nowNs();
              encodeDecision(out, requestView.requestId, decisions[0],
                             &frameTrace);
              frame = {.pending = true,
                       .batch = false,
                       .sampled = (frameTrace.flags & kTraceFlagSampled) != 0,
                       .requestId = requestView.requestId,
                       .traceId = frameTrace.traceId,
                       .rows = 1,
                       .t0 = t0,
                       .t1 = t1,
                       .t2 = t2,
                       .t3 = session_.nowNs()};
              break;
            }
            case FrameType::DecideBatch: {
              const std::int64_t t0 = session_.nowNs();
              parseDecideBatch(payload, batchView);
              frameTrace = batchView.trace;
              const std::size_t rows = batchView.rows;
              regionName.assign(batchView.region);
              // decideColumns overwrites every field of every row it
              // fills, so the reply buffer is only sized, not re-initialised.
              decisions.resize(rows);
              const std::int64_t t1 = session_.nowNs();
              tail = runtime_.decideColumns(
                  regionName, batchView.slots, batchView.values, rows,
                  decisions);
              const std::int64_t t2 = session_.nowNs();
              encodeDecisionBatch(out, batchView.requestId,
                                  std::span(decisions.data(), rows),
                                  &frameTrace);
              frame = {.pending = true,
                       .batch = true,
                       .sampled = (frameTrace.flags & kTraceFlagSampled) != 0,
                       .requestId = batchView.requestId,
                       .traceId = frameTrace.traceId,
                       .rows = static_cast<std::uint32_t>(rows),
                       .t0 = t0,
                       .t1 = t1,
                       .t2 = t2,
                       .t3 = session_.nowNs()};
              break;
            }
            case FrameType::StatsRequest: {
              const StatsRequestFrame stats = parseStatsRequest(payload);
              const std::string text =
                  static_cast<StatsFormat>(stats.format) ==
                          StatsFormat::Prometheus
                      ? obs::renderPrometheus(session_)
                      : obs::renderStatsSummary(session_);
              encodeStats(out, text);
              break;
            }
            case FrameType::SlowLogRequest: {
              const SlowLogRequestFrame slow = parseSlowLogRequest(payload);
              std::vector<obs::SlowRequestRecord> records =
                  session_.slowRing().snapshot();
              if (slow.maxRecords != 0 && records.size() > slow.maxRecords) {
                records.erase(
                    records.begin(),
                    records.end() -
                        static_cast<std::ptrdiff_t>(slow.maxRecords));
              }
              encodeSlowLog(out, obs::renderSlowJson(records));
              break;
            }
            case FrameType::Hello:
            case FrameType::HelloAck:
            case FrameType::Decision:
            case FrameType::DecisionBatch:
            case FrameType::Stats:
            case FrameType::SlowLog:
            case FrameType::Pong:
            case FrameType::Error:
              encodeError(out, WireCode::BadFrame,
                          "oseld: unexpected frame type " +
                              std::to_string(header.type),
                          &frameTrace);
              instruments_.errors->add();
              break;
            default:
              encodeError(out, WireCode::UnknownType,
                          "oseld: unknown frame type " +
                              std::to_string(header.type),
                          &frameTrace);
              instruments_.errors->add();
              break;
          }
        } catch (const CodecError& error) {
          out.resize(outMark);
          encodeError(out, error.wireCode(), error.what(), &frameTrace);
          instruments_.errors->add();
        } catch (const osel::Error& error) {
          out.resize(outMark);
          encodeError(out, wireCodeFor(error.code()), error.what(),
                      &frameTrace);
          instruments_.errors->add();
        } catch (const std::exception& error) {
          out.resize(outMark);
          encodeError(out, WireCode::Unknown, error.what(), &frameTrace);
          instruments_.errors->add();
        }
      }

      if (!out.empty()) {
        const std::int64_t sendStart = session_.nowNs();
        sendAll(socket, out);
        const std::int64_t sendEnd = session_.nowNs();
        instruments_.bytesOut->add(out.size());
        out.clear();
        // The reply is on the wire: the record phase runs now, before the
        // next read, so the connection's next frame sees what this one
        // recorded.
        recordFrame();
        if (!pendingCaptures.empty()) {
          // One send(2) flushes every reply buffered this round. A frame's
          // send stage runs from its own encode end to the point the next
          // frame's decode began (the flush, for the last frame) plus an
          // even share of the write itself — so decode/decide/encode/send
          // tile the request wall exactly for request-reply clients (the
          // stage histograms must account for >= 99% of request_s), and
          // pipelined frames still split the write cost evenly.
          const auto sendShare = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(sendEnd - sendStart) /
              pendingCaptures.size());
          bool sendSpanRecorded = false;
          for (std::size_t i = 0; i < pendingCaptures.size(); ++i) {
            PendingCapture& capture = pendingCaptures[i];
            const std::int64_t stageEnd = i + 1 < pendingCaptures.size()
                                              ? pendingCaptures[i + 1].startNs
                                              : sendStart;
            obs::SlowRequestRecord& record = capture.record;
            record.sendNs = (stageEnd - capture.encodeEndNs) + sendShare;
            record.wallNs = sendEnd - capture.startNs;
            instruments_.sendSeconds->record(
                static_cast<double>(record.sendNs) * 1e-9);
            instruments_.requestSeconds->record(
                static_cast<double>(record.wallNs) * 1e-9);
            const bool overThreshold =
                slowThresholdNs >= 0 && record.wallNs > slowThresholdNs;
            if (capture.sampled && !sendSpanRecorded) {
              session_.recordSpan("service.send", "service",
                                  record.regionView(), sendStart,
                                  sendEnd - sendStart,
                                  {"client", static_cast<double>(clientId)},
                                  {"trace_id",
                                   static_cast<double>(record.traceId)});
              sendSpanRecorded = true;
            }
            if (overThreshold || capture.sampled) {
              record.cause = overThreshold ? obs::SlowCause::Threshold
                                           : obs::SlowCause::Sampled;
              record.atNs = sendEnd;
              session_.recordSlow(record);
            }
          }
        }
        pendingCaptures.clear();
      }
    }
  } catch (const SocketError&) {
    // Peer vanished mid-conversation; nothing to answer.
  }
  // A frame answered but never flushed (the peer vanished first) still
  // records.
  recordFrame();

  {
    std::lock_guard<std::mutex> lock(activeMutex_);
    activeFds_.erase(socket.fd());
  }
}

void Server::metricsLoop() {
  // Serial request handling is plenty for a scraper that polls every few
  // seconds; the decision path never waits on this thread. Each accepted
  // connection is registered in activeFds_ (so stop() can shutdown(2) a
  // scraper this thread is blocked reading) and recv-bounded (so a scraper
  // that connects and then stalls cannot pin the loop past the timeout).
  for (;;) {
    Socket connection = acceptOn(metricsListener_);
    if (!connection.valid() || stopping_.load(std::memory_order_acquire)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(activeMutex_);
      activeFds_.insert(connection.fd());
    }
    // Re-check after registering: stop() sets stopping_ before sweeping
    // activeFds_, so either it sees this fd or we see the flag.
    if (!stopping_.load(std::memory_order_acquire)) {
      try {
        setRecvTimeout(connection, options_.metricsRecvTimeoutMillis);
        serveMetricsConnection(connection);
      } catch (const SocketError&) {
        // Scraper hung up early or stalled past the timeout; serve the
        // next one.
      }
    }
    {
      std::lock_guard<std::mutex> lock(activeMutex_);
      activeFds_.erase(connection.fd());
    }
  }
}

void Server::serveMetricsConnection(const Socket& connection) {
  std::string request;
  char buffer[4096];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 16 * 1024) {
    const std::size_t got = recvSome(connection, buffer, sizeof(buffer));
    if (got == 0) break;
    request.append(buffer, got);
  }
  std::string body;
  const char* status = "200 OK";
  if (request.rfind("GET /metrics", 0) == 0) {
    body = obs::renderPrometheus(session_);
  } else if (request.rfind("GET / ", 0) == 0 ||
             request.rfind("GET /\r", 0) == 0) {
    body = "oseld metrics endpoint; scrape GET /metrics\n";
  } else {
    status = "404 Not Found";
    body = "only GET /metrics is served here\n";
  }
  std::string response = "HTTP/1.0 ";
  response += status;
  response +=
      "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  response += body;
  sendAll(connection, response);
}

}  // namespace osel::service
