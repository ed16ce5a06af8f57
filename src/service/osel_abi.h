// osel/service/osel_abi.h — the oseld wire protocol, version 2.
//
// The project's first *stable* public API: a small length-prefixed binary
// protocol that serves decide()/decideBatch() over a Unix-domain socket
// (TCP optional behind a daemon flag). Everything on the wire is built from
// the versioned POD frames below; their layouts are pinned by
// static_asserts so an accidental field reorder or padding change breaks
// the build, not a deployed fleet.
//
// Wire grammar — every message is one frame:
//
//   FrameHeader (8 bytes) | payload (FrameHeader::length bytes)
//
// The payload starts with the frame type's fixed POD struct; variable-length
// tails (region names, symbol tables, value columns, diagnostics) follow in
// the order each struct documents. All integers and doubles are
// little-endian; payloads carry no alignment guarantees, so implementations
// must memcpy fields in and out (service/codec.h does).
//
// Versioning and compatibility rules (docs/SERVICE.md spells these out):
//   * A connection opens with Hello/HelloAck. The server speaks only
//     kProtocolVersion; a Hello whose [versionMin, versionMax] range
//     excludes it is answered Error{UnsupportedVersion} and closed.
//   * Additive evolution uses feature bits: a capability both sides set in
//     Hello/HelloAck is on, anything else is off. Bits are never reused.
//   * Any layout change to an existing frame bumps kProtocolVersion. Each
//     frame has exactly one layout per version: no feature bit changes one.
//   * Unknown frame types are answered with Error{UnknownType}; the
//     connection stays usable (forward compatibility for new RPCs).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace osel::service {

// The codec memcpys little-endian values directly; porting to a big-endian
// host would need byte-swapping loads/stores in service/codec.cpp.
static_assert(std::endian::native == std::endian::little,
              "oseld wire codec assumes a little-endian host");

/// Protocol version this build speaks (the only one). Version 2 made the
/// TraceContextBlock a fixed part of every decide frame, decision reply and
/// post-handshake Error; version 1 peers are refused.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// First payload field of Hello/HelloAck: "OSEL" in ASCII, little-endian.
inline constexpr std::uint32_t kMagic = 0x4C45534Fu;

/// Hard ceiling every implementation enforces before trusting a length
/// prefix; the negotiated per-connection limit (HelloAck::maxFrameBytes)
/// can only be smaller.
inline constexpr std::uint32_t kAbsoluteMaxFrameBytes = 64u << 20;

/// Default per-connection frame limit a server advertises.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 4u << 20;

// --- Feature bits (Hello::featureBits / HelloAck::featureBits) ------------
inline constexpr std::uint32_t kFeatureBatch = 1u << 0;  ///< DecideBatch
inline constexpr std::uint32_t kFeatureStats = 1u << 1;  ///< StatsRequest
/// StatsRequest::format == Prometheus supported.
inline constexpr std::uint32_t kFeaturePrometheus = 1u << 2;
// 1u << 3 is retired: it negotiated the version 1 trace-context layouts,
// which version 2 carries unconditionally. Never reuse it.
/// SlowLogRequest/SlowLog RPC (the slow-request capture ring) supported.
inline constexpr std::uint32_t kFeatureSlowLog = 1u << 4;

/// Frame discriminator (FrameHeader::type). Values are wire-stable; new
/// types append, retired values are never reused.
enum class FrameType : std::uint16_t {
  Hello = 1,
  HelloAck = 2,
  Ping = 3,
  Pong = 4,
  DecideRequest = 5,
  Decision = 6,
  DecideBatch = 7,
  DecisionBatch = 8,
  StatsRequest = 9,
  Stats = 10,
  SlowLogRequest = 11,
  SlowLog = 12,
  Error = 15,
};

/// Stable wire error codes (ErrorFrame::wireCode). 1..99 mirror the
/// osel::ErrorCode taxonomy (support/error.h) one-to-one; 100+ are
/// service-layer conditions with no in-process counterpart.
enum class WireCode : std::uint32_t {
  Unknown = 1,
  Precondition = 2,
  Invariant = 3,
  TransientLaunch = 4,
  DeviceMemory = 5,
  DeviceLost = 6,
  PadLookup = 7,

  BadFrame = 100,            ///< malformed payload (truncated, bad counts)
  UnsupportedVersion = 101,  ///< Hello version negotiation failed
  FrameTooLarge = 102,       ///< length prefix over the negotiated limit
  UnknownType = 103,         ///< unrecognised FrameType
  Shed = 104,                ///< admission control refused the connection
  ExpectedHello = 105,       ///< first frame was not Hello
};

/// Every wire message starts with this. `length` counts payload bytes after
/// the header (0 is legal: Ping/Pong have empty payloads).
struct FrameHeader {
  std::uint32_t length = 0;
  std::uint16_t type = 0;  ///< FrameType
  std::uint16_t reserved = 0;
};
static_assert(sizeof(FrameHeader) == 8);
static_assert(offsetof(FrameHeader, length) == 0);
static_assert(offsetof(FrameHeader, type) == 4);
static_assert(offsetof(FrameHeader, reserved) == 6);

/// Client's opening frame. The version *range* lets a client that speaks
/// several versions meet a server that speaks one of them.
struct HelloFrame {
  std::uint32_t magic = kMagic;
  std::uint16_t versionMin = kProtocolVersion;
  std::uint16_t versionMax = kProtocolVersion;
  std::uint32_t featureBits = 0;  ///< capabilities the client wants
  std::uint32_t reserved = 0;
};
static_assert(sizeof(HelloFrame) == 16);
static_assert(offsetof(HelloFrame, magic) == 0);
static_assert(offsetof(HelloFrame, versionMin) == 4);
static_assert(offsetof(HelloFrame, versionMax) == 6);
static_assert(offsetof(HelloFrame, featureBits) == 8);
static_assert(offsetof(HelloFrame, reserved) == 12);

/// Server's answer to Hello: the negotiated version, the accepted feature
/// subset, and the per-connection frame ceiling the client must respect.
/// `maxFrameBytes` bounds the client-to-server direction only — it is the
/// server's admission limit on untrusted requests. Replies can legally
/// outgrow the request that produced them (a DecisionBatch carries 40+
/// bytes per 8-byte request row), so clients bound received frames by
/// kAbsoluteMaxFrameBytes alone.
struct HelloAckFrame {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t reserved = 0;
  std::uint32_t featureBits = 0;  ///< granted = requested ∩ supported
  std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
};
static_assert(sizeof(HelloAckFrame) == 16);
static_assert(offsetof(HelloAckFrame, magic) == 0);
static_assert(offsetof(HelloAckFrame, version) == 4);
static_assert(offsetof(HelloAckFrame, featureBits) == 8);
static_assert(offsetof(HelloAckFrame, maxFrameBytes) == 12);

// --- Trace context --------------------------------------------------------

/// TraceContextBlock::flags: this request is trace-sampled — the server
/// records spans / wide events for it regardless of its own tail sampling.
inline constexpr std::uint32_t kTraceFlagSampled = 1u << 0;

/// Request-scoped trace identity. Always on the wire after the handshake: it
/// sits immediately after the fixed POD struct (before the variable tail) of
/// DecideRequest and DecideBatch, and the server echoes the request's block
/// in the same position on Decision, DecisionBatch, and post-handshake Error
/// replies (zeroed when the request never parsed far enough to carry one).
/// Pre-handshake errors never carry one, so a peer of any version can read
/// the refusal.
struct TraceContextBlock {
  std::uint64_t traceId = 0;  ///< caller-chosen 64-bit trace id (0 = none)
  std::uint32_t flags = 0;    ///< kTraceFlagSampled | reserved zeros
  std::uint32_t reserved = 0;
};
static_assert(sizeof(TraceContextBlock) == 16);
static_assert(offsetof(TraceContextBlock, traceId) == 0);
static_assert(offsetof(TraceContextBlock, flags) == 8);
static_assert(offsetof(TraceContextBlock, reserved) == 12);

/// One scalar decide(). Tail, in order:
///   TraceContextBlock       16 bytes
///   regionNameBytes bytes   UTF-8 region name (no NUL)
///   bindingCount ×  { u32 symbolBytes | i64 value | symbol bytes }
struct DecideRequestFrame {
  std::uint64_t requestId = 0;  ///< echoed in the DecisionRecord
  std::uint32_t regionNameBytes = 0;
  std::uint32_t bindingCount = 0;
};
static_assert(sizeof(DecideRequestFrame) == 16);
static_assert(offsetof(DecideRequestFrame, requestId) == 0);
static_assert(offsetof(DecideRequestFrame, regionNameBytes) == 8);
static_assert(offsetof(DecideRequestFrame, bindingCount) == 12);

/// One region group of batched decides, carrying its bound values as
/// slot-major columns — the layout TargetRuntime's SoA batch evaluator
/// (CompiledExpr::evaluateColumns) consumes, so a server never transposes.
/// Tail, in order:
///   TraceContextBlock                    16 bytes
///   regionNameBytes bytes                region name
///   slotCount ×  { u32 symbolBytes | symbol bytes }   slot symbol table
///   slotCount*rowCount × i64             values[slot*rowCount + row]
/// Row r binds symbol[k] = values[k*rowCount + r] for every k.
/// A frame with rowCount > 0 must name at least one slot: with zero slots
/// the value matrix is empty whatever rowCount claims, so a receiver could
/// not bound the count against the payload. Binding-free rows travel as
/// scalar DecideRequest frames (bindingCount == 0).
struct DecideBatchFrame {
  std::uint64_t requestId = 0;  ///< id of row 0; row r echoes requestId + r
  std::uint32_t regionNameBytes = 0;
  std::uint32_t slotCount = 0;
  std::uint32_t rowCount = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(DecideBatchFrame) == 24);
static_assert(offsetof(DecideBatchFrame, requestId) == 0);
static_assert(offsetof(DecideBatchFrame, regionNameBytes) == 8);
static_assert(offsetof(DecideBatchFrame, slotCount) == 12);
static_assert(offsetof(DecideBatchFrame, rowCount) == 16);

/// One decision's wire form — the stable subset of runtime::Decision the
/// equivalence tests pin bit-identical across the socket: device, validity,
/// and the two model predictions (bit-exact doubles). `overheadSeconds` is
/// wall time and excluded from the equivalence contract, like decideBatch's.
struct DecisionRecord {
  std::uint64_t requestId = 0;
  double cpuSeconds = 0.0;       ///< Decision::cpu.seconds
  double gpuSeconds = 0.0;       ///< Decision::gpu.totalSeconds
  double overheadSeconds = 0.0;  ///< server-side decide cost
  std::uint8_t device = 0;       ///< 0 = CPU, 1 = GPU
  std::uint8_t valid = 0;
  std::uint16_t flags = 0;           ///< reserved, 0
  std::uint32_t diagnosticBytes = 0;  ///< this record's slice of the tail
};
static_assert(sizeof(DecisionRecord) == 40);
static_assert(offsetof(DecisionRecord, requestId) == 0);
static_assert(offsetof(DecisionRecord, cpuSeconds) == 8);
static_assert(offsetof(DecisionRecord, gpuSeconds) == 16);
static_assert(offsetof(DecisionRecord, overheadSeconds) == 24);
static_assert(offsetof(DecisionRecord, device) == 32);
static_assert(offsetof(DecisionRecord, valid) == 33);
static_assert(offsetof(DecisionRecord, diagnosticBytes) == 36);

/// Decision (type 6) payload: one DecisionRecord, the echoed
/// TraceContextBlock, then diagnostic bytes.
/// DecisionBatch (type 8) payload: this header, the echoed
/// TraceContextBlock, then `count` DecisionRecords (row order = request row
/// order), then every record's diagnostic bytes concatenated in the same
/// order.
struct DecisionBatchFrame {
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(DecisionBatchFrame) == 8);

/// Stats formats (StatsRequestFrame::format).
enum class StatsFormat : std::uint32_t { Summary = 0, Prometheus = 1 };

/// Asks the server to render its obs session. Answered with a Stats frame
/// whose payload is the rendered text (no fixed struct, just bytes).
struct StatsRequestFrame {
  std::uint32_t format = 0;  ///< StatsFormat
  std::uint32_t reserved = 0;
};
static_assert(sizeof(StatsRequestFrame) == 8);

/// Asks the server to drain its slow-request capture ring (newest last).
/// Requires kFeatureSlowLog. Answered with a SlowLog frame whose payload is
/// JSONL text — one wide-event object per line (no fixed struct, just
/// bytes). `maxRecords == 0` means "all buffered records".
struct SlowLogRequestFrame {
  std::uint32_t maxRecords = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SlowLogRequestFrame) == 8);

/// Error payload: stable code, then (after the handshake only) the echoed
/// TraceContextBlock, then human-readable message bytes.
struct ErrorFrame {
  std::uint32_t wireCode = 0;  ///< WireCode
  std::uint32_t messageBytes = 0;
};
static_assert(sizeof(ErrorFrame) == 8);
static_assert(offsetof(ErrorFrame, wireCode) == 0);
static_assert(offsetof(ErrorFrame, messageBytes) == 4);

}  // namespace osel::service
