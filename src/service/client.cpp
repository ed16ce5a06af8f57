#include "service/client.h"

#include "support/check.h"

namespace osel::service {

Client Client::connect(const std::string& path) {
  Client client(connectUnix(path));
  client.handshake();
  return client;
}

Client Client::connectPort(std::uint16_t port) {
  Client client(connectTcp(port));
  client.handshake();
  return client;
}

Client::Client(Socket socket) : socket_(std::move(socket)) {}

void Client::handshake() {
  HelloFrame hello;
  hello.featureBits = kRequestedFeatures;
  encodeHello(outBuffer_, hello);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::HelloAck);
  const HelloAckFrame ack = parseHelloAck(payload_);
  version_ = ack.version;
  featureBits_ = ack.featureBits;
  // The negotiated limit bounds frames *we send*; replies may legally be
  // larger (a DecisionBatch is ~5x its request), so the receive decoder
  // keeps the absolute ceiling it was constructed with (see osel_abi.h).
  maxFrameBytes_ = ack.maxFrameBytes;
}

void Client::ping() {
  encodePing(outBuffer_);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::Pong);
}

runtime::Decision Client::decide(std::string_view region,
                                 const symbolic::Bindings& bindings,
                                 const TraceContextBlock* trace) {
  const std::uint64_t id = nextRequestId_++;
  const std::uint64_t traceId = trace != nullptr ? trace->traceId : 0;
  encodeDecideRequest(outBuffer_, id, region, bindings, trace);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::Decision);
  DecisionView view;
  parseDecision(payload_, view);
  if (view.requestId != id) {
    throw CodecError(WireCode::BadFrame,
                     "client: Decision answered request " +
                         std::to_string(view.requestId) + ", expected " +
                         std::to_string(id));
  }
  if (view.trace.traceId != traceId) {
    throw CodecError(WireCode::BadFrame,
                     "client: Decision echoed trace id " +
                         std::to_string(view.trace.traceId) + ", expected " +
                         std::to_string(traceId));
  }
  return view.decision;
}

void Client::decideBatch(std::string_view region,
                         std::span<const std::string_view> slots,
                         std::uint32_t rows,
                         std::span<const std::int64_t> values,
                         std::vector<runtime::Decision>& out,
                         const TraceContextBlock* trace) {
  if (slots.empty() && rows > 0) {
    // Wire rule: a row-carrying DecideBatch names at least one slot — with
    // zero slots the server could not bound the claimed rowCount. Rows for
    // binding-free regions go as scalar frames instead.
    const symbolic::Bindings none;
    out.resize(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      out[row] = decide(region, none, trace);
    }
    return;
  }
  const std::uint64_t traceId = trace != nullptr ? trace->traceId : 0;
  const std::uint64_t id = nextRequestId_;
  nextRequestId_ += rows == 0 ? 1 : rows;  // rows echo id..id+rows-1
  encodeDecideBatch(outBuffer_, id, region, slots, rows, values, trace);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::DecisionBatch);
  parseDecisionBatch(payload_, batchViews_);
  if (batchViews_.size() != rows) {
    throw CodecError(WireCode::BadFrame,
                     "client: DecisionBatch carried " +
                         std::to_string(batchViews_.size()) +
                         " rows, expected " + std::to_string(rows));
  }
  if (!batchViews_.empty() && batchViews_.front().trace.traceId != traceId) {
    throw CodecError(WireCode::BadFrame,
                     "client: DecisionBatch echoed trace id " +
                         std::to_string(batchViews_.front().trace.traceId) +
                         ", expected " + std::to_string(traceId));
  }
  out.resize(batchViews_.size());
  for (std::size_t row = 0; row < batchViews_.size(); ++row) {
    if (batchViews_[row].requestId != id + row) {
      throw CodecError(WireCode::BadFrame,
                       "client: DecisionBatch row " + std::to_string(row) +
                           " echoed request " +
                           std::to_string(batchViews_[row].requestId));
    }
    out[row] = batchViews_[row].decision;
  }
}

std::string Client::stats(StatsFormat format) {
  encodeStatsRequest(outBuffer_, format);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::Stats);
  return std::string(parseStats(payload_));
}

std::string Client::slowLog(std::uint32_t maxRecords) {
  encodeSlowLogRequest(outBuffer_, maxRecords);
  const FrameHeader header = exchange();
  expectType(header, payload_, FrameType::SlowLog);
  return std::string(parseSlowLog(payload_));
}

FrameHeader Client::exchange() {
  // Enforce the server's negotiated request ceiling before sending: a
  // frame it would refuse must fail here with a clear error, not desync
  // the connection. Discarding it keeps the client usable.
  if (outBuffer_.size() > sizeof(FrameHeader) + maxFrameBytes_) {
    const std::size_t bytes = outBuffer_.size() - sizeof(FrameHeader);
    outBuffer_.clear();
    throw CodecError(WireCode::FrameTooLarge,
                     "client: request frame of " + std::to_string(bytes) +
                         " payload bytes exceeds the server's negotiated "
                         "limit " +
                         std::to_string(maxFrameBytes_));
  }
  sendAll(socket_, outBuffer_);
  outBuffer_.clear();
  return readFrame();
}

FrameHeader Client::readFrame() {
  FrameHeader header;
  char buffer[64 * 1024];
  for (;;) {
    if (decoder_.next(header, payload_)) return header;
    const std::size_t got = recvSome(socket_, buffer, sizeof(buffer));
    if (got == 0) {
      throw SocketError("client: server closed the connection mid-exchange");
    }
    decoder_.append(buffer, got);
  }
}

void Client::expectType(const FrameHeader& header, std::string_view payload,
                        FrameType expected) {
  const auto type = static_cast<FrameType>(header.type);
  if (type == expected) return;
  if (type == FrameType::Error) {
    // Handshake-time errors carry no trace block (version_ is still 0);
    // every later one carries one, zeroed when the context is unknown.
    const ErrorView error = parseError(payload, version_ != 0);
    throw ServiceError(error.code, std::string(error.message));
  }
  throw CodecError(WireCode::BadFrame,
                   "client: expected frame type " +
                       std::to_string(static_cast<int>(expected)) + ", got " +
                       std::to_string(header.type));
}

}  // namespace osel::service
