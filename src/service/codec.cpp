#include "service/codec.h"

#include <cstring>

#include "support/check.h"

namespace osel::service {

namespace {

// --- Raw little-endian plumbing (host asserted LE in osel_abi.h) ----------

template <typename T>
void appendPod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reserves a frame header in `out`, returning the offset to patch once the
/// payload is appended.
std::size_t beginFrame(std::string& out, FrameType type) {
  const std::size_t headerAt = out.size();
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(type);
  appendPod(out, header);
  return headerAt;
}

void endFrame(std::string& out, std::size_t headerAt) {
  const std::size_t payload = out.size() - headerAt - sizeof(FrameHeader);
  support::ensure(payload <= kAbsoluteMaxFrameBytes,
                  "service codec: frame payload exceeds the absolute limit");
  const auto length = static_cast<std::uint32_t>(payload);
  std::memcpy(out.data() + headerAt + offsetof(FrameHeader, length), &length,
              sizeof(length));
}

/// Bounds-checked reader over one payload. Every take/read throws BadFrame
/// on under-run, so no parser can walk past the extent.
class Cursor {
 public:
  explicit Cursor(std::string_view payload) : data_(payload) {}

  template <typename T>
  [[nodiscard]] T read() {
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  [[nodiscard]] std::string_view take(std::size_t size) {
    if (size > data_.size() - at_) {
      throw CodecError(WireCode::BadFrame,
                       "service codec: truncated payload (need " +
                           std::to_string(size) + " bytes, " +
                           std::to_string(data_.size() - at_) + " left)");
    }
    const std::string_view view = data_.substr(at_, size);
    at_ += size;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - at_; }

  /// Trailing junk after a fully-parsed payload is a malformed frame too —
  /// a peer whose encoder disagrees about the layout must not half-work.
  void finish() const {
    if (at_ != data_.size()) {
      throw CodecError(WireCode::BadFrame,
                       "service codec: " + std::to_string(data_.size() - at_) +
                           " unexpected trailing payload bytes");
    }
  }

 private:
  std::string_view data_;
  std::size_t at_ = 0;
};

/// A length-prefixed string whose claimed size must fit the remainder.
std::string_view takeString(Cursor& cursor, std::uint32_t bytes) {
  return cursor.take(bytes);
}

/// Writes the frame's TraceContextBlock; null writes a zeroed one.
void appendTrace(std::string& out, const TraceContextBlock* trace) {
  appendPod(out, trace != nullptr ? *trace : TraceContextBlock{});
}

DecisionRecord recordFor(std::uint64_t requestId,
                         const runtime::Decision& decision) {
  DecisionRecord record;
  record.requestId = requestId;
  record.cpuSeconds = decision.cpu.seconds;
  record.gpuSeconds = decision.gpu.totalSeconds;
  record.overheadSeconds = decision.overheadSeconds;
  record.device = decision.device == runtime::Device::Gpu ? 1 : 0;
  record.valid = decision.valid ? 1 : 0;
  record.diagnosticBytes =
      static_cast<std::uint32_t>(decision.diagnostic.size());
  return record;
}

void fillDecision(const DecisionRecord& record, std::string_view diagnostic,
                  DecisionView& view) {
  if (record.device > 1) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecisionRecord.device out of range");
  }
  view.requestId = record.requestId;
  runtime::Decision& decision = view.decision;
  decision = runtime::Decision{};
  decision.device =
      record.device == 1 ? runtime::Device::Gpu : runtime::Device::Cpu;
  decision.valid = record.valid != 0;
  decision.diagnostic.assign(diagnostic);
  decision.cpu.seconds = record.cpuSeconds;
  decision.gpu.totalSeconds = record.gpuSeconds;
  decision.overheadSeconds = record.overheadSeconds;
}

}  // namespace

std::string toString(WireCode code) {
  switch (code) {
    case WireCode::Unknown: return "unknown";
    case WireCode::Precondition: return "precondition";
    case WireCode::Invariant: return "invariant";
    case WireCode::TransientLaunch: return "transient-launch";
    case WireCode::DeviceMemory: return "device-memory";
    case WireCode::DeviceLost: return "device-lost";
    case WireCode::PadLookup: return "pad-lookup";
    case WireCode::BadFrame: return "bad-frame";
    case WireCode::UnsupportedVersion: return "unsupported-version";
    case WireCode::FrameTooLarge: return "frame-too-large";
    case WireCode::UnknownType: return "unknown-type";
    case WireCode::Shed: return "shed";
    case WireCode::ExpectedHello: return "expected-hello";
  }
  return "?";
}

WireCode wireCodeFor(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::Unknown: return WireCode::Unknown;
    case ErrorCode::Precondition: return WireCode::Precondition;
    case ErrorCode::Invariant: return WireCode::Invariant;
    case ErrorCode::TransientLaunch: return WireCode::TransientLaunch;
    case ErrorCode::DeviceMemory: return WireCode::DeviceMemory;
    case ErrorCode::DeviceLost: return WireCode::DeviceLost;
    case ErrorCode::PadLookup: return WireCode::PadLookup;
  }
  return WireCode::Unknown;
}

ErrorCode errorCodeFor(WireCode code) noexcept {
  switch (code) {
    case WireCode::Unknown: return ErrorCode::Unknown;
    case WireCode::Precondition: return ErrorCode::Precondition;
    case WireCode::Invariant: return ErrorCode::Invariant;
    case WireCode::TransientLaunch: return ErrorCode::TransientLaunch;
    case WireCode::DeviceMemory: return ErrorCode::DeviceMemory;
    case WireCode::DeviceLost: return ErrorCode::DeviceLost;
    case WireCode::PadLookup: return ErrorCode::PadLookup;
    // The service-layer conditions are all wire-contract violations.
    case WireCode::BadFrame:
    case WireCode::UnsupportedVersion:
    case WireCode::FrameTooLarge:
    case WireCode::UnknownType:
    case WireCode::Shed:
    case WireCode::ExpectedHello:
      return ErrorCode::Precondition;
  }
  return ErrorCode::Unknown;
}

// --- Encoders -------------------------------------------------------------

void encodeHello(std::string& out, const HelloFrame& hello) {
  const std::size_t at = beginFrame(out, FrameType::Hello);
  appendPod(out, hello);
  endFrame(out, at);
}

void encodeHelloAck(std::string& out, const HelloAckFrame& ack) {
  const std::size_t at = beginFrame(out, FrameType::HelloAck);
  appendPod(out, ack);
  endFrame(out, at);
}

void encodePing(std::string& out) {
  endFrame(out, beginFrame(out, FrameType::Ping));
}

void encodePong(std::string& out) {
  endFrame(out, beginFrame(out, FrameType::Pong));
}

void encodeDecideRequest(std::string& out, std::uint64_t requestId,
                         std::string_view region,
                         const symbolic::Bindings& bindings,
                         const TraceContextBlock* trace) {
  const std::size_t at = beginFrame(out, FrameType::DecideRequest);
  DecideRequestFrame frame;
  frame.requestId = requestId;
  frame.regionNameBytes = static_cast<std::uint32_t>(region.size());
  frame.bindingCount = static_cast<std::uint32_t>(bindings.size());
  appendPod(out, frame);
  appendTrace(out, trace);
  out.append(region);
  for (const auto& [symbol, value] : bindings) {
    appendPod(out, static_cast<std::uint32_t>(symbol.size()));
    appendPod(out, static_cast<std::int64_t>(value));
    out.append(symbol);
  }
  endFrame(out, at);
}

void encodeDecideBatch(std::string& out, std::uint64_t requestId,
                       std::string_view region,
                       std::span<const std::string_view> slots,
                       std::uint32_t rows,
                       std::span<const std::int64_t> values,
                       const TraceContextBlock* trace) {
  support::require(values.size() ==
                       static_cast<std::size_t>(slots.size()) * rows,
                   "encodeDecideBatch: values must hold slots * rows entries "
                   "(slot-major)");
  support::require(!slots.empty() || rows == 0,
                   "encodeDecideBatch: a row-carrying batch must name at "
                   "least one slot (send binding-free rows as scalar "
                   "DecideRequest frames)");
  const std::size_t at = beginFrame(out, FrameType::DecideBatch);
  DecideBatchFrame frame;
  frame.requestId = requestId;
  frame.regionNameBytes = static_cast<std::uint32_t>(region.size());
  frame.slotCount = static_cast<std::uint32_t>(slots.size());
  frame.rowCount = rows;
  appendPod(out, frame);
  appendTrace(out, trace);
  out.append(region);
  for (const std::string_view slot : slots) {
    appendPod(out, static_cast<std::uint32_t>(slot.size()));
    out.append(slot);
  }
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(std::int64_t));
  endFrame(out, at);
}

void encodeDecision(std::string& out, std::uint64_t requestId,
                    const runtime::Decision& decision,
                    const TraceContextBlock* trace) {
  const std::size_t at = beginFrame(out, FrameType::Decision);
  appendPod(out, recordFor(requestId, decision));
  appendTrace(out, trace);
  out.append(decision.diagnostic);
  endFrame(out, at);
}

void encodeDecisionBatch(std::string& out, std::uint64_t requestId,
                         std::span<const runtime::Decision> decisions,
                         const TraceContextBlock* trace) {
  const std::size_t at = beginFrame(out, FrameType::DecisionBatch);
  DecisionBatchFrame frame;
  frame.count = static_cast<std::uint32_t>(decisions.size());
  appendPod(out, frame);
  appendTrace(out, trace);
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    appendPod(out, recordFor(requestId + i, decisions[i]));
  }
  for (const runtime::Decision& decision : decisions) {
    out.append(decision.diagnostic);
  }
  endFrame(out, at);
}

void encodeStatsRequest(std::string& out, StatsFormat format) {
  const std::size_t at = beginFrame(out, FrameType::StatsRequest);
  StatsRequestFrame frame;
  frame.format = static_cast<std::uint32_t>(format);
  appendPod(out, frame);
  endFrame(out, at);
}

void encodeStats(std::string& out, std::string_view text) {
  const std::size_t at = beginFrame(out, FrameType::Stats);
  out.append(text);
  endFrame(out, at);
}

void encodeSlowLogRequest(std::string& out, std::uint32_t maxRecords) {
  const std::size_t at = beginFrame(out, FrameType::SlowLogRequest);
  SlowLogRequestFrame frame;
  frame.maxRecords = maxRecords;
  appendPod(out, frame);
  endFrame(out, at);
}

void encodeSlowLog(std::string& out, std::string_view jsonl) {
  const std::size_t at = beginFrame(out, FrameType::SlowLog);
  out.append(jsonl);
  endFrame(out, at);
}

void encodeError(std::string& out, WireCode code, std::string_view message,
                 const TraceContextBlock* trace) {
  const std::size_t at = beginFrame(out, FrameType::Error);
  ErrorFrame frame;
  frame.wireCode = static_cast<std::uint32_t>(code);
  frame.messageBytes = static_cast<std::uint32_t>(message.size());
  appendPod(out, frame);
  if (trace != nullptr) appendPod(out, *trace);
  out.append(message);
  endFrame(out, at);
}

// --- FrameDecoder ---------------------------------------------------------

FrameDecoder::FrameDecoder(std::uint32_t maxFrameBytes)
    : maxFrameBytes_(std::min(maxFrameBytes, kAbsoluteMaxFrameBytes)) {}

void FrameDecoder::setMaxFrameBytes(std::uint32_t maxFrameBytes) {
  maxFrameBytes_ = std::min(maxFrameBytes, kAbsoluteMaxFrameBytes);
}

void FrameDecoder::append(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

bool FrameDecoder::next(FrameHeader& header, std::string& payload) {
  if (pending() < sizeof(FrameHeader)) return false;
  std::memcpy(&header, buffer_.data() + start_, sizeof(FrameHeader));
  // Reject a hostile length prefix before buffering toward it: a peer
  // claiming a 4 GiB payload must not make the decoder allocate 4 GiB.
  if (header.length > maxFrameBytes_) {
    throw CodecError(WireCode::FrameTooLarge,
                     "service codec: frame length " +
                         std::to_string(header.length) +
                         " exceeds the negotiated limit " +
                         std::to_string(maxFrameBytes_));
  }
  const std::size_t total = sizeof(FrameHeader) + header.length;
  if (pending() < total) return false;
  payload.assign(buffer_, start_ + sizeof(FrameHeader), header.length);
  start_ += total;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its receive buffer without bound.
  if (start_ > 4096 && start_ * 2 > buffer_.size()) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
  return true;
}

// --- Typed parsers --------------------------------------------------------

HelloFrame parseHello(std::string_view payload) {
  Cursor cursor(payload);
  const auto hello = cursor.read<HelloFrame>();
  cursor.finish();
  if (hello.magic != kMagic) {
    throw CodecError(WireCode::BadFrame, "service codec: Hello magic mismatch");
  }
  if (hello.versionMin > hello.versionMax) {
    throw CodecError(WireCode::UnsupportedVersion,
                     "service codec: Hello version range is inverted");
  }
  return hello;
}

HelloAckFrame parseHelloAck(std::string_view payload) {
  Cursor cursor(payload);
  const auto ack = cursor.read<HelloAckFrame>();
  cursor.finish();
  if (ack.magic != kMagic) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: HelloAck magic mismatch");
  }
  return ack;
}

void parseDecideRequest(std::string_view payload, DecideRequestView& view) {
  Cursor cursor(payload);
  const auto frame = cursor.read<DecideRequestFrame>();
  view.requestId = frame.requestId;
  view.trace = cursor.read<TraceContextBlock>();
  view.region = takeString(cursor, frame.regionNameBytes);
  view.bindings.clear();
  // Each binding is at least 12 fixed bytes, so a hostile bindingCount that
  // cannot fit the remaining payload fails here instead of reserving.
  if (static_cast<std::uint64_t>(frame.bindingCount) * 12 >
      cursor.remaining()) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecideRequest bindingCount exceeds "
                     "payload");
  }
  view.bindings.reserve(frame.bindingCount);
  for (std::uint32_t i = 0; i < frame.bindingCount; ++i) {
    const auto symbolBytes = cursor.read<std::uint32_t>();
    const auto value = cursor.read<std::int64_t>();
    view.bindings.push_back({takeString(cursor, symbolBytes), value});
  }
  cursor.finish();
}

void parseDecideBatch(std::string_view payload, DecideBatchView& view) {
  Cursor cursor(payload);
  const auto frame = cursor.read<DecideBatchFrame>();
  view.requestId = frame.requestId;
  view.trace = cursor.read<TraceContextBlock>();
  view.region = takeString(cursor, frame.regionNameBytes);
  view.slots.clear();
  if (static_cast<std::uint64_t>(frame.slotCount) * 4 > cursor.remaining()) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecideBatch slotCount exceeds payload");
  }
  view.slots.reserve(frame.slotCount);
  for (std::uint32_t i = 0; i < frame.slotCount; ++i) {
    const auto symbolBytes = cursor.read<std::uint32_t>();
    view.slots.push_back(takeString(cursor, symbolBytes));
  }
  // With zero slots the value matrix is empty no matter what rowCount
  // claims, so the size cross-check below cannot bound it — and the server
  // sizes per-row buffers from rowCount. Wire rule: a row-carrying batch
  // names at least one slot (binding-free rows travel as scalar
  // DecideRequest frames).
  if (frame.slotCount == 0 && frame.rowCount != 0) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecideBatch carries rows but no slots");
  }
  view.rows = frame.rowCount;
  const std::uint64_t valueBytes = static_cast<std::uint64_t>(frame.slotCount) *
                                   frame.rowCount * sizeof(std::int64_t);
  if (valueBytes != cursor.remaining()) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecideBatch value matrix size mismatch "
                     "(expected " +
                         std::to_string(valueBytes) + " bytes, have " +
                         std::to_string(cursor.remaining()) + ")");
  }
  view.values = cursor.take(static_cast<std::size_t>(valueBytes)).data();
  cursor.finish();
}

std::int64_t DecideBatchView::value(std::size_t slot, std::size_t row) const {
  std::int64_t out;
  std::memcpy(&out, values + (slot * rows + row) * sizeof(std::int64_t),
              sizeof(out));
  return out;
}

void parseDecision(std::string_view payload, DecisionView& view) {
  Cursor cursor(payload);
  const auto record = cursor.read<DecisionRecord>();
  view.trace = cursor.read<TraceContextBlock>();
  const std::string_view diagnostic =
      takeString(cursor, record.diagnosticBytes);
  cursor.finish();
  fillDecision(record, diagnostic, view);
}

void parseDecisionBatch(std::string_view payload,
                        std::vector<DecisionView>& views) {
  Cursor cursor(payload);
  const auto frame = cursor.read<DecisionBatchFrame>();
  const auto trace = cursor.read<TraceContextBlock>();
  if (static_cast<std::uint64_t>(frame.count) * sizeof(DecisionRecord) >
      cursor.remaining()) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: DecisionBatch count exceeds payload");
  }
  // The fixed-size records come first, their diagnostics after them; read
  // each record in place rather than copying them all out first, so a
  // reused `views` makes parsing allocation-free.
  const std::string_view records =
      cursor.take(frame.count * sizeof(DecisionRecord));
  views.resize(frame.count);
  for (std::uint32_t i = 0; i < frame.count; ++i) {
    DecisionRecord record;
    std::memcpy(&record, records.data() + i * sizeof(DecisionRecord),
                sizeof(DecisionRecord));
    fillDecision(record, takeString(cursor, record.diagnosticBytes),
                 views[i]);
    views[i].trace = trace;
  }
  cursor.finish();
}

StatsRequestFrame parseStatsRequest(std::string_view payload) {
  Cursor cursor(payload);
  const auto frame = cursor.read<StatsRequestFrame>();
  cursor.finish();
  if (frame.format > static_cast<std::uint32_t>(StatsFormat::Prometheus)) {
    throw CodecError(WireCode::BadFrame,
                     "service codec: unknown StatsRequest format");
  }
  return frame;
}

SlowLogRequestFrame parseSlowLogRequest(std::string_view payload) {
  Cursor cursor(payload);
  const auto frame = cursor.read<SlowLogRequestFrame>();
  cursor.finish();
  return frame;
}

ErrorView parseError(std::string_view payload, bool afterHandshake) {
  Cursor cursor(payload);
  const auto frame = cursor.read<ErrorFrame>();
  ErrorView view;
  view.code = static_cast<WireCode>(frame.wireCode);
  if (afterHandshake) view.trace = cursor.read<TraceContextBlock>();
  view.message = takeString(cursor, frame.messageBytes);
  cursor.finish();
  return view;
}

std::string_view parseStats(std::string_view payload) { return payload; }

std::string_view parseSlowLog(std::string_view payload) { return payload; }

}  // namespace osel::service
