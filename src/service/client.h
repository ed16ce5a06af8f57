// osel/service/client.h — blocking client for the oseld wire protocol.
//
// One Client wraps one connection: connect() performs the Hello/HelloAck
// version negotiation, after which decide()/decideBatch()/ping()/stats()
// are synchronous request/response exchanges. An ErrorFrame answer raises
// ServiceError carrying the wire code, so callers see the server's error
// taxonomy as typed exceptions rather than sentinel decisions. Used by
// `oselctl`, `loadgen_oseld`, and the service tests; not thread-safe —
// open one Client per thread.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/selector.h"
#include "service/codec.h"
#include "service/socket.h"
#include "symbolic/expr.h"

namespace osel::service {

/// The server answered ErrorFrame{code}; message is the server's text.
class ServiceError : public std::runtime_error, public osel::Error {
 public:
  ServiceError(WireCode wireCode, const std::string& message)
      : std::runtime_error(message), wireCode_(wireCode) {}

  [[nodiscard]] WireCode wireCode() const noexcept { return wireCode_; }
  [[nodiscard]] ErrorCode code() const noexcept override {
    return errorCodeFor(wireCode_);
  }
  [[nodiscard]] const char* what() const noexcept override {
    return std::runtime_error::what();
  }

 private:
  WireCode wireCode_;
};

class Client {
 public:
  /// Feature bits a Client requests: everything it implements. The server
  /// grants the intersection with what *it* supports.
  static constexpr std::uint32_t kRequestedFeatures =
      kFeatureBatch | kFeatureStats | kFeaturePrometheus | kFeatureSlowLog;

  /// Connects to a Unix-domain socket and completes the handshake. Throws
  /// ConnectError when nothing listens on `path`, ServiceError when the
  /// server refuses (version mismatch, shed), CodecError on wire garbage.
  [[nodiscard]] static Client connect(const std::string& path);
  /// Same over loopback TCP (the optional transport).
  [[nodiscard]] static Client connectPort(std::uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Negotiated protocol version / granted feature bits / the server's
  /// frame-size ceiling for *requests*, all from HelloAck.
  [[nodiscard]] std::uint16_t version() const { return version_; }
  [[nodiscard]] std::uint32_t featureBits() const { return featureBits_; }
  [[nodiscard]] std::uint32_t maxFrameBytes() const { return maxFrameBytes_; }

  /// Ping → Pong round trip (liveness probe for `oselctl ping`).
  void ping();

  /// One decision over the wire. Only the wire-stable Decision subset is
  /// populated (device, valid, diagnostic, cpu.seconds, gpu.totalSeconds,
  /// overheadSeconds). `trace` is the request's trace context (a zeroed
  /// block when null); the reply's echoed block must carry the same traceId
  /// or the client throws CodecError{BadFrame}.
  [[nodiscard]] runtime::Decision decide(std::string_view region,
                                         const symbolic::Bindings& bindings,
                                         const TraceContextBlock* trace =
                                             nullptr);

  /// Batched decisions for `rows` rows sharing one region and slot set;
  /// `values` is slot-major (values[slot * rows + row]). Decisions land in
  /// `out` (resized to `rows`), row order preserved. An empty slot set
  /// (binding-free region) is sent as scalar DecideRequest frames — the
  /// wire forbids row-carrying zero-slot batches. `trace` as for decide().
  void decideBatch(std::string_view region,
                   std::span<const std::string_view> slots, std::uint32_t rows,
                   std::span<const std::int64_t> values,
                   std::vector<runtime::Decision>& out,
                   const TraceContextBlock* trace = nullptr);

  /// Server-side stats text: the obs summary or the Prometheus exposition.
  [[nodiscard]] std::string stats(StatsFormat format);

  /// The server's slow-request capture as JSONL text (one wide event per
  /// line, oldest first). maxRecords == 0 asks for everything buffered.
  [[nodiscard]] std::string slowLog(std::uint32_t maxRecords = 0);

 private:
  explicit Client(Socket socket);

  void handshake();
  /// Sends `outBuffer_` and blocks until one complete frame arrives; its
  /// payload lands in `payload_`.
  FrameHeader exchange();
  /// Blocks until one complete frame arrives into `payload_` (no send).
  FrameHeader readFrame();
  /// Throws ServiceError if the frame is an ErrorFrame; CodecError if its
  /// type is not `expected`.
  void expectType(const FrameHeader& header, std::string_view payload,
                  FrameType expected);

  Socket socket_;
  /// Receive-side decoder. HelloAck::maxFrameBytes bounds what we *send*;
  /// server replies are bounded only by the absolute ceiling.
  FrameDecoder decoder_{kAbsoluteMaxFrameBytes};
  // Per-connection scratch reused by every exchange, so a warmed-up client
  // decides without touching the heap.
  std::string outBuffer_;
  std::string payload_;
  std::vector<DecisionView> batchViews_;
  std::uint64_t nextRequestId_ = 1;
  std::uint16_t version_ = 0;
  std::uint32_t featureBits_ = 0;
  std::uint32_t maxFrameBytes_ = kDefaultMaxFrameBytes;
};

}  // namespace osel::service
