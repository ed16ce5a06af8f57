// osel/service/codec.h — encode/decode between osel_abi.h wire frames and
// in-process types.
//
// The decode side is the trust boundary of `oseld`: every byte it consumes
// may come from a hostile or broken peer, so all parsing is bounds-checked
// memcpy against the payload extent — truncated tails, counts that do not
// add up, oversized length prefixes, and bad magic/version all raise a
// typed CodecError (never UB, pinned by the hostile-frame fuzz test).
// Parse functions fill caller-owned view structs whose string_views point
// into the payload buffer; the views are valid only while that buffer is.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/selector.h"
#include "service/osel_abi.h"
#include "support/check.h"
#include "support/error.h"
#include "symbolic/expr.h"

namespace osel::service {

[[nodiscard]] std::string toString(WireCode code);

/// The stable wire code for an in-process error classification (and back).
[[nodiscard]] WireCode wireCodeFor(ErrorCode code) noexcept;
[[nodiscard]] ErrorCode errorCodeFor(WireCode code) noexcept;

/// Raised by every parse path on malformed wire data. A server catches it
/// and answers ErrorFrame{wireCode()}; a client surfaces it to the caller.
class CodecError : public std::runtime_error, public osel::Error {
 public:
  CodecError(WireCode wireCode, const std::string& message)
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

// --- Encoding -------------------------------------------------------------
// Every encoder appends one complete frame (header + payload) to `out`,
// which accumulates bytes ready for send(). Appending to one string lets a
// caller coalesce many frames into a single write.

// The `trace` parameter on the decide and decision encoders is the frame's
// TraceContextBlock, written immediately after the fixed POD struct;
// nullptr (the default) writes a zeroed block. On encodeError, nullptr means
// a pre-handshake error, which carries no block; after the handshake the
// server always passes one (zeroed when the request's is unknown).

void encodeHello(std::string& out, const HelloFrame& hello);
void encodeHelloAck(std::string& out, const HelloAckFrame& ack);
void encodePing(std::string& out);
void encodePong(std::string& out);
void encodeDecideRequest(std::string& out, std::uint64_t requestId,
                         std::string_view region,
                         const symbolic::Bindings& bindings,
                         const TraceContextBlock* trace = nullptr);
/// `values` is slot-major, values[slot * rows + row], slots.size() * rows
/// entries (support::PreconditionError otherwise).
void encodeDecideBatch(std::string& out, std::uint64_t requestId,
                       std::string_view region,
                       std::span<const std::string_view> slots,
                       std::uint32_t rows,
                       std::span<const std::int64_t> values,
                       const TraceContextBlock* trace = nullptr);
void encodeDecision(std::string& out, std::uint64_t requestId,
                    const runtime::Decision& decision,
                    const TraceContextBlock* trace = nullptr);
/// Row r is encoded with requestId + r.
void encodeDecisionBatch(std::string& out, std::uint64_t requestId,
                         std::span<const runtime::Decision> decisions,
                         const TraceContextBlock* trace = nullptr);
void encodeStatsRequest(std::string& out, StatsFormat format);
void encodeStats(std::string& out, std::string_view text);
void encodeSlowLogRequest(std::string& out, std::uint32_t maxRecords = 0);
void encodeSlowLog(std::string& out, std::string_view jsonl);
void encodeError(std::string& out, WireCode code, std::string_view message,
                 const TraceContextBlock* trace = nullptr);

// --- Decoding -------------------------------------------------------------

/// Incremental frame splitter over a byte stream. Feed received bytes with
/// append(); next() pops one complete frame at a time. The only validation
/// here is the length prefix (against the connection's negotiated limit);
/// payload structure is the typed parsers' job.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes);

  /// Tightens/loosens the length ceiling (post-Hello negotiation). Clamped
  /// to kAbsoluteMaxFrameBytes.
  void setMaxFrameBytes(std::uint32_t maxFrameBytes);

  void append(const void* data, std::size_t size);

  /// Pops the next complete frame into (header, payload); false when the
  /// buffered bytes do not yet hold one. Throws CodecError{FrameTooLarge}
  /// as soon as a header's length prefix exceeds the limit — before waiting
  /// for (or allocating) the oversized payload.
  [[nodiscard]] bool next(FrameHeader& header, std::string& payload);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t pending() const { return buffer_.size() - start_; }

 private:
  std::uint32_t maxFrameBytes_;
  std::string buffer_;
  std::size_t start_ = 0;  ///< consumed prefix, compacted periodically
};

/// Decoded DecideRequest; `region`/`symbol` views point into the payload.
struct DecideRequestView {
  std::uint64_t requestId = 0;
  std::string_view region;
  struct Binding {
    std::string_view symbol;
    std::int64_t value = 0;
  };
  std::vector<Binding> bindings;
  TraceContextBlock trace;
};

/// Decoded DecideBatch. `values` stays in wire order (slot-major); use
/// value(slot, row) — the payload carries no alignment guarantee, so the
/// accessor memcpys.
struct DecideBatchView {
  std::uint64_t requestId = 0;
  std::string_view region;
  std::vector<std::string_view> slots;
  std::uint32_t rows = 0;
  const char* values = nullptr;  ///< slots.size() * rows little-endian i64s
  TraceContextBlock trace;

  [[nodiscard]] std::int64_t value(std::size_t slot, std::size_t row) const;
};

/// One decoded decision; only the wire-stable Decision subset is filled
/// (device, valid, diagnostic, cpu.seconds, gpu.totalSeconds,
/// overheadSeconds) — the model-term breakdowns stay server-side.
struct DecisionView {
  std::uint64_t requestId = 0;
  runtime::Decision decision;
  TraceContextBlock trace;
};

struct ErrorView {
  WireCode code = WireCode::Unknown;
  std::string_view message;
  TraceContextBlock trace;
};

// All parsers throw CodecError{BadFrame} on truncated/oversized/ill-formed
// payloads (and {UnsupportedVersion} where magic/version checks apply). A
// decide frame or decision reply without its TraceContextBlock is a
// truncated payload.
[[nodiscard]] HelloFrame parseHello(std::string_view payload);
[[nodiscard]] HelloAckFrame parseHelloAck(std::string_view payload);
void parseDecideRequest(std::string_view payload, DecideRequestView& view);
void parseDecideBatch(std::string_view payload, DecideBatchView& view);
void parseDecision(std::string_view payload, DecisionView& view);
/// The frame-level block is echoed into every view (the wire carries one
/// block shared by all rows).
void parseDecisionBatch(std::string_view payload,
                        std::vector<DecisionView>& views);
[[nodiscard]] StatsRequestFrame parseStatsRequest(std::string_view payload);
[[nodiscard]] SlowLogRequestFrame parseSlowLogRequest(
    std::string_view payload);
/// `afterHandshake`: the Error carries a TraceContextBlock (every
/// post-handshake Error does; pre-handshake ones never do).
[[nodiscard]] ErrorView parseError(std::string_view payload,
                                   bool afterHandshake);
[[nodiscard]] std::string_view parseStats(std::string_view payload);
[[nodiscard]] std::string_view parseSlowLog(std::string_view payload);

// The call form bench/ledger still uses, `parse*(payload, view, true)` from
// protocol version 1, where the flag asked for the trace block that every
// frame now carries. Delete these once the ledger drops the argument
// (ROADMAP item 8).
inline void parseDecideRequest(std::string_view payload,
                               DecideRequestView& view, bool traceBlock) {
  support::require(traceBlock, "parseDecideRequest: every frame has a block");
  parseDecideRequest(payload, view);
}
inline void parseDecideBatch(std::string_view payload, DecideBatchView& view,
                             bool traceBlock) {
  support::require(traceBlock, "parseDecideBatch: every frame has a block");
  parseDecideBatch(payload, view);
}
inline void parseDecision(std::string_view payload, DecisionView& view,
                          bool traceBlock) {
  support::require(traceBlock, "parseDecision: every frame has a block");
  parseDecision(payload, view);
}
inline void parseDecisionBatch(std::string_view payload,
                               std::vector<DecisionView>& views,
                               bool traceBlock) {
  support::require(traceBlock, "parseDecisionBatch: every frame has a block");
  parseDecisionBatch(payload, views);
}

}  // namespace osel::service
