// The wire codec: round trips for every frame type, stream reassembly, and
// the hostile-frame fuzz the decode side is hardened against — truncated
// tails, oversized length prefixes, bad magic/version, counts that do not
// add up, and random byte mutations. Malformed input must always surface
// as a typed CodecError, never UB or a crash.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "service/codec.h"

namespace osel::service {
namespace {

/// Splits `bytes` (one complete encoded frame) into header + payload.
std::string decodeOne(const std::string& bytes, FrameHeader& header) {
  FrameDecoder decoder;
  decoder.append(bytes.data(), bytes.size());
  std::string payload;
  EXPECT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(decoder.pending(), 0u);
  return payload;
}

runtime::Decision sampleDecision() {
  runtime::Decision decision;
  decision.device = runtime::Device::Gpu;
  decision.valid = true;
  decision.diagnostic = "all models agree";
  decision.cpu.seconds = 0.125;
  decision.gpu.totalSeconds = 0.03125;
  decision.overheadSeconds = 1.5e-7;
  return decision;
}

TraceContextBlock sampleTrace() {
  TraceContextBlock trace;
  trace.traceId = 0xABCDEF0123456789ull;
  trace.flags = kTraceFlagSampled;
  return trace;
}

/// One payload of every frame type that carries a TraceContextBlock, plus
/// a pre-handshake Error (which carries none), in the order `parseAny`
/// dispatches on. `trace` is the block every carrying frame is encoded
/// with; nullptr encodes the zeroed block an untraced peer sends.
std::vector<std::string> blockFramePayloads(
    const TraceContextBlock* trace = nullptr) {
  const TraceContextBlock zeroed;
  const TraceContextBlock* errorTrace = trace != nullptr ? trace : &zeroed;
  const symbolic::Bindings bindings{{"n", 64}, {"m", 32}};
  const std::vector<std::string_view> slots{"n", "m"};
  const std::vector<std::int64_t> values{1, 2, 3, 4};
  std::vector<std::string> payloads;
  FrameHeader header;
  std::string bytes;
  const auto push = [&] {
    payloads.push_back(decodeOne(bytes, header));
    bytes.clear();
  };
  encodeDecideRequest(bytes, 5, "gemm_k1", bindings, trace);
  push();
  encodeDecideBatch(bytes, 5, "gemm_k1", slots, 2, values, trace);
  push();
  encodeDecision(bytes, 5, sampleDecision(), trace);
  push();
  encodeDecisionBatch(bytes, 5,
                      std::vector<runtime::Decision>(2, sampleDecision()),
                      trace);
  push();
  encodeError(bytes, WireCode::Shed, "queue full", errorTrace);
  push();
  encodeError(bytes, WireCode::Shed, "queue full");
  push();
  return payloads;
}

/// Parses `payload` as frame kind `which` (blockFramePayloads' order).
void parseAny(std::size_t which, std::string_view payload) {
  DecideRequestView request;
  DecideBatchView batch;
  DecisionView decision;
  std::vector<DecisionView> decisions;
  switch (which) {
    case 0: parseDecideRequest(payload, request); break;
    case 1: parseDecideBatch(payload, batch); break;
    case 2: parseDecision(payload, decision); break;
    case 3: parseDecisionBatch(payload, decisions); break;
    case 4: (void)parseError(payload, true); break;
    default: (void)parseError(payload, false); break;
  }
}

/// Every strict prefix of every payload must throw CodecError; the whole
/// payload must parse.
void expectEveryTruncationThrows(const std::vector<std::string>& payloads) {
  for (std::size_t which = 0; which < payloads.size(); ++which) {
    const std::string& full = payloads[which];
    EXPECT_NO_THROW(parseAny(which, full)) << "frame kind " << which;
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      EXPECT_THROW(parseAny(which, full.substr(0, cut)), CodecError)
          << "frame kind " << which << " cut at " << cut;
    }
  }
}

/// 2000 random byte mutations of `seeds`, drawn from the deterministic
/// `corpus` (a regression corpus). Every mutant is parsed as every frame
/// kind, so no parser sees only well-shaped input; anything thrown that is
/// not a CodecError fails the test.
void parseRandomMutations(const std::vector<std::string>& seeds,
                          std::uint32_t corpus) {
  std::mt19937 rng(corpus);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = seeds[rng() % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] =
          static_cast<char>(static_cast<unsigned char>(rng()));
    }
    for (std::size_t which = 0; which < seeds.size(); ++which) {
      try {
        parseAny(which, mutated);
      } catch (const CodecError&) {
      }
    }
  }
}

TEST(Codec, HelloRoundTrip) {
  HelloFrame hello;
  hello.versionMin = 1;
  hello.versionMax = 3;
  hello.featureBits = kFeatureBatch | kFeaturePrometheus;
  std::string bytes;
  encodeHello(bytes, hello);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Hello));
  const HelloFrame parsed = parseHello(payload);
  EXPECT_EQ(parsed.magic, kMagic);
  EXPECT_EQ(parsed.versionMin, 1);
  EXPECT_EQ(parsed.versionMax, 3);
  EXPECT_EQ(parsed.featureBits, kFeatureBatch | kFeaturePrometheus);
}

TEST(Codec, HelloAckRoundTrip) {
  HelloAckFrame ack;
  ack.version = 1;
  ack.featureBits = kFeatureStats;
  ack.maxFrameBytes = 1u << 16;
  std::string bytes;
  encodeHelloAck(bytes, ack);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::HelloAck));
  const HelloAckFrame parsed = parseHelloAck(payload);
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.featureBits, kFeatureStats);
  EXPECT_EQ(parsed.maxFrameBytes, 1u << 16);
}

TEST(Codec, PingAndPongHaveEmptyPayloads) {
  std::string bytes;
  encodePing(bytes);
  encodePong(bytes);
  FrameDecoder decoder;
  decoder.append(bytes.data(), bytes.size());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Ping));
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Pong));
  EXPECT_TRUE(payload.empty());
}

TEST(Codec, DecideRequestRoundTrip) {
  const symbolic::Bindings bindings{{"m", 1024}, {"n", -7}, {"nk", 1}};
  std::string bytes;
  encodeDecideRequest(bytes, 42, "gemm_k1", bindings);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::DecideRequest));
  DecideRequestView view;
  parseDecideRequest(payload, view);
  EXPECT_EQ(view.requestId, 42u);
  EXPECT_EQ(view.region, "gemm_k1");
  ASSERT_EQ(view.bindings.size(), 3u);
  symbolic::Bindings rebuilt;
  for (const auto& binding : view.bindings) {
    rebuilt[std::string(binding.symbol)] = binding.value;
  }
  EXPECT_EQ(rebuilt, bindings);
}

TEST(Codec, DecideBatchRoundTripIsSlotMajor) {
  const std::vector<std::string_view> slots{"n", "m"};
  // Slot-major: all n values, then all m values.
  const std::vector<std::int64_t> values{10, 20, 30, 100, 200, 300};
  std::string bytes;
  encodeDecideBatch(bytes, 7, "atax_k1", slots, 3, values);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::DecideBatch));
  DecideBatchView view;
  parseDecideBatch(payload, view);
  EXPECT_EQ(view.requestId, 7u);
  EXPECT_EQ(view.region, "atax_k1");
  ASSERT_EQ(view.slots.size(), 2u);
  EXPECT_EQ(view.slots[0], "n");
  EXPECT_EQ(view.slots[1], "m");
  ASSERT_EQ(view.rows, 3u);
  EXPECT_EQ(view.value(0, 0), 10);
  EXPECT_EQ(view.value(0, 2), 30);
  EXPECT_EQ(view.value(1, 0), 100);
  EXPECT_EQ(view.value(1, 2), 300);
}

TEST(Codec, DecisionRoundTripPreservesBitExactDoubles) {
  const runtime::Decision decision = sampleDecision();
  std::string bytes;
  encodeDecision(bytes, 99, decision);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Decision));
  DecisionView view;
  parseDecision(payload, view);
  EXPECT_EQ(view.requestId, 99u);
  EXPECT_EQ(view.decision.device, runtime::Device::Gpu);
  EXPECT_TRUE(view.decision.valid);
  EXPECT_EQ(view.decision.diagnostic, "all models agree");
  // Bit-exact, not approximately equal: the equivalence contract.
  EXPECT_EQ(std::memcmp(&view.decision.cpu.seconds, &decision.cpu.seconds,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&view.decision.gpu.totalSeconds,
                        &decision.gpu.totalSeconds, sizeof(double)),
            0);
}

TEST(Codec, DecisionBatchRoundTripEchoesSequentialIds) {
  std::vector<runtime::Decision> decisions(3, sampleDecision());
  decisions[1].device = runtime::Device::Cpu;
  decisions[1].diagnostic.clear();
  decisions[2].valid = false;
  decisions[2].diagnostic = "missing PAD entry";
  std::string bytes;
  encodeDecisionBatch(bytes, 1000, decisions);
  FrameHeader header;
  const std::string payload = decodeOne(bytes, header);
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::DecisionBatch));
  std::vector<DecisionView> views;
  parseDecisionBatch(payload, views);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].requestId, 1000u);
  EXPECT_EQ(views[1].requestId, 1001u);
  EXPECT_EQ(views[2].requestId, 1002u);
  EXPECT_EQ(views[1].decision.device, runtime::Device::Cpu);
  EXPECT_TRUE(views[1].decision.diagnostic.empty());
  EXPECT_FALSE(views[2].decision.valid);
  EXPECT_EQ(views[2].decision.diagnostic, "missing PAD entry");
}

TEST(Codec, StatsAndErrorRoundTrip) {
  std::string bytes;
  encodeStatsRequest(bytes, StatsFormat::Prometheus);
  encodeStats(bytes, "osel_decisions_total 5\n");
  encodeError(bytes, WireCode::Shed, "queue full");
  FrameDecoder decoder;
  decoder.append(bytes.data(), bytes.size());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(parseStatsRequest(payload).format,
            static_cast<std::uint32_t>(StatsFormat::Prometheus));
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(parseStats(payload), "osel_decisions_total 5\n");
  ASSERT_TRUE(decoder.next(header, payload));
  const ErrorView error = parseError(payload, false);
  EXPECT_EQ(error.code, WireCode::Shed);
  EXPECT_EQ(error.message, "queue full");
}

TEST(Codec, WireCodeMappingRoundTripsTheTaxonomy) {
  for (const ErrorCode code :
       {ErrorCode::Unknown, ErrorCode::Precondition, ErrorCode::Invariant,
        ErrorCode::TransientLaunch, ErrorCode::DeviceMemory,
        ErrorCode::DeviceLost, ErrorCode::PadLookup}) {
    EXPECT_EQ(errorCodeFor(wireCodeFor(code)), code);
  }
}

TEST(Codec, DecoderReassemblesAByteAtATimeStream) {
  const symbolic::Bindings bindings{{"n", 512}};
  std::string bytes;
  encodeDecideRequest(bytes, 1, "mvt_k1", bindings);
  encodePing(bytes);
  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  std::size_t frames = 0;
  for (const char byte : bytes) {
    decoder.append(&byte, 1);
    while (decoder.next(header, payload)) ++frames;
  }
  EXPECT_EQ(frames, 2u);
}

// --- Hostile frames -------------------------------------------------------

TEST(CodecHostile, OversizedLengthPrefixThrowsBeforeBuffering) {
  FrameHeader header;
  header.length = kDefaultMaxFrameBytes + 1;
  header.type = static_cast<std::uint16_t>(FrameType::DecideRequest);
  FrameDecoder decoder;  // default limit
  decoder.append(&header, sizeof(header));
  // Only the header arrived; the decoder must reject without waiting for
  // (or allocating) the advertised payload.
  FrameHeader out;
  std::string payload;
  try {
    (void)decoder.next(out, payload);
    FAIL() << "oversized length prefix was accepted";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.wireCode(), WireCode::FrameTooLarge);
  }
}

TEST(CodecHostile, TightenedLimitAppliesToTheNextFrame) {
  std::string bytes;
  encodeStats(bytes, std::string(1024, 'x'));
  FrameDecoder decoder;
  decoder.setMaxFrameBytes(64);
  decoder.append(bytes.data(), bytes.size());
  FrameHeader header;
  std::string payload;
  EXPECT_THROW((void)decoder.next(header, payload), CodecError);
}

TEST(CodecHostile, EveryTruncationOfEveryFrameThrowsBadFrame) {
  expectEveryTruncationThrows(blockFramePayloads());
}

TEST(CodecHostile, TrailingJunkIsRejected) {
  std::string bytes;
  encodeDecideRequest(bytes, 5, "gemm_k1", {{"n", 64}});
  FrameHeader header;
  std::string payload = decodeOne(bytes, header);
  payload += '\0';
  DecideRequestView view;
  EXPECT_THROW(parseDecideRequest(payload, view), CodecError);
}

TEST(CodecHostile, BadMagicAndInvertedVersionRangeThrow) {
  HelloFrame hello;
  std::string bytes;
  encodeHello(bytes, hello);
  FrameHeader header;
  std::string payload = decodeOne(bytes, header);
  std::string badMagic = payload;
  badMagic[0] = 'X';
  EXPECT_THROW((void)parseHello(badMagic), CodecError);

  hello = HelloFrame{};
  hello.versionMin = 3;
  hello.versionMax = 1;  // inverted range
  bytes.clear();
  encodeHello(bytes, hello);
  payload = decodeOne(bytes, header);
  try {
    (void)parseHello(payload);
    FAIL() << "inverted version range was accepted";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.wireCode(), WireCode::UnsupportedVersion);
  }
}

TEST(CodecHostile, CountsThatDoNotAddUpThrow) {
  // bindingCount far larger than the payload could carry (overflow bait).
  // The zeroed bytes after each fixed struct are its TraceContextBlock.
  std::string payload(sizeof(DecideRequestFrame) + sizeof(TraceContextBlock),
                      '\0');
  DecideRequestFrame request;
  request.regionNameBytes = 0;
  request.bindingCount = 0x40000000u;
  std::memcpy(payload.data(), &request, sizeof(request));
  DecideRequestView requestView;
  EXPECT_THROW(parseDecideRequest(payload, requestView), CodecError);

  // slotCount * rowCount value block missing.
  payload.assign(sizeof(DecideBatchFrame) + sizeof(TraceContextBlock), '\0');
  DecideBatchFrame batch;
  batch.regionNameBytes = 0;
  batch.slotCount = 0x20000000u;
  batch.rowCount = 8;
  std::memcpy(payload.data(), &batch, sizeof(batch));
  DecideBatchView batchView;
  EXPECT_THROW(parseDecideBatch(payload, batchView), CodecError);
}

TEST(CodecHostile, ZeroSlotBatchClaimingRowsThrows) {
  // With slotCount == 0 the value-matrix size check is vacuous (0 * rows
  // values == 0 remaining bytes), so without its own guard a 40-byte frame
  // could claim 4 billion rows and drive the server into rowCount-sized
  // allocations. The zeroed bytes after the fixed struct are its
  // TraceContextBlock.
  std::string payload(sizeof(DecideBatchFrame) + sizeof(TraceContextBlock),
                      '\0');
  DecideBatchFrame batch;
  batch.regionNameBytes = 0;
  batch.slotCount = 0;
  batch.rowCount = 0xFFFFFFFFu;
  std::memcpy(payload.data(), &batch, sizeof(batch));
  DecideBatchView view;
  try {
    parseDecideBatch(payload, view);
    FAIL() << "zero-slot row-carrying batch was accepted";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.wireCode(), WireCode::BadFrame);
  }

  // Zero slots with zero rows stays a legal (empty) batch.
  batch.rowCount = 0;
  std::memcpy(payload.data(), &batch, sizeof(batch));
  parseDecideBatch(payload, view);
  EXPECT_EQ(view.rows, 0u);
  EXPECT_TRUE(view.slots.empty());

  // The encoder enforces the same wire rule, so a buggy client fails fast
  // instead of producing a frame every server rejects.
  std::string bytes;
  EXPECT_THROW(encodeDecideBatch(bytes, 1, "stream", {}, 3, {}),
               std::logic_error);
}

TEST(CodecHostile, DeviceOutOfRangeThrows) {
  std::string bytes;
  encodeDecision(bytes, 5, sampleDecision());
  FrameHeader header;
  std::string payload = decodeOne(bytes, header);
  payload[offsetof(DecisionRecord, device)] = 2;
  DecisionView view;
  EXPECT_THROW(parseDecision(payload, view), CodecError);
}

TEST(CodecHostile, RandomMutationsNeverEscapeAsNonCodecErrors) {
  parseRandomMutations(blockFramePayloads(), 2019);
}

TEST(CodecHostile, RandomGarbageStreamsNeverCrashTheDecoder) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder(4096);
    FrameHeader header;
    std::string payload;
    std::string garbage(1 + rng() % 512, '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(static_cast<unsigned char>(rng()));
    }
    try {
      decoder.append(garbage.data(), garbage.size());
      while (decoder.next(header, payload)) {
      }
    } catch (const CodecError&) {
      // FrameTooLarge from a garbage length prefix: expected.
    }
  }
}

// --- Trace context --------------------------------------------------------
// Every decide frame, decision reply and post-handshake Error carries a
// 16-byte TraceContextBlock after its fixed struct.

TEST(CodecTrace, TraceBlockRoundTripsOnEveryDecideFrame) {
  const TraceContextBlock trace = sampleTrace();
  const symbolic::Bindings bindings{{"n", 64}};
  const std::vector<std::string_view> slots{"n"};
  const std::vector<std::int64_t> values{1, 2};
  FrameHeader header;

  std::string bytes;
  encodeDecideRequest(bytes, 5, "gemm_k1", bindings, &trace);
  // Each payload is a named local: the views below point into it.
  const std::string requestPayload = decodeOne(bytes, header);
  DecideRequestView request;
  parseDecideRequest(requestPayload, request);
  EXPECT_EQ(request.trace.traceId, trace.traceId);
  EXPECT_EQ(request.trace.flags, kTraceFlagSampled);
  EXPECT_EQ(request.region, "gemm_k1");
  ASSERT_EQ(request.bindings.size(), 1u);
  EXPECT_EQ(request.bindings[0].value, 64);

  bytes.clear();
  encodeDecideBatch(bytes, 5, "gemm_k1", slots, 2, values, &trace);
  const std::string batchPayload = decodeOne(bytes, header);
  DecideBatchView batch;
  parseDecideBatch(batchPayload, batch);
  EXPECT_EQ(batch.trace.traceId, trace.traceId);
  EXPECT_EQ(batch.value(0, 1), 2);

  bytes.clear();
  encodeDecision(bytes, 5, sampleDecision(), &trace);
  const std::string decisionPayload = decodeOne(bytes, header);
  DecisionView decision;
  parseDecision(decisionPayload, decision);
  EXPECT_EQ(decision.trace.traceId, trace.traceId);
  EXPECT_EQ(decision.decision.diagnostic, "all models agree");
  // The version 1 call form (`true` = "frame has a block") decodes the same
  // bytes; `false` no longer names a layout.
  DecisionView legacyForm;
  parseDecision(decisionPayload, legacyForm, true);
  EXPECT_EQ(legacyForm.trace.traceId, trace.traceId);
  EXPECT_THROW(parseDecision(decisionPayload, legacyForm, false),
               std::logic_error);

  bytes.clear();
  encodeDecisionBatch(bytes, 1000,
                      std::vector<runtime::Decision>(2, sampleDecision()),
                      &trace);
  const std::string decisionBatchPayload = decodeOne(bytes, header);
  std::vector<DecisionView> views;
  parseDecisionBatch(decisionBatchPayload, views);
  ASSERT_EQ(views.size(), 2u);
  // One shared frame-level block, echoed into every row view.
  EXPECT_EQ(views[0].trace.traceId, trace.traceId);
  EXPECT_EQ(views[1].trace.traceId, trace.traceId);

  bytes.clear();
  encodeError(bytes, WireCode::Shed, "queue full", &trace);
  const std::string errorPayload = decodeOne(bytes, header);
  const ErrorView error = parseError(errorPayload, true);
  EXPECT_EQ(error.trace.traceId, trace.traceId);
  EXPECT_EQ(error.message, "queue full");
}

TEST(CodecTrace, EveryTruncationOfEveryTraceFrameThrowsBadFrame) {
  const TraceContextBlock trace = sampleTrace();
  expectEveryTruncationThrows(blockFramePayloads(&trace));
}

TEST(CodecTrace, RandomMutationsOfTraceFramesNeverEscapeAsNonCodecErrors) {
  const TraceContextBlock trace = sampleTrace();
  parseRandomMutations(blockFramePayloads(&trace), 2026);
}

TEST(Codec, SlowLogRoundTrip) {
  std::string bytes;
  encodeSlowLogRequest(bytes, 16);
  encodeSlowLog(bytes, "{\"seq\":0}\n");
  FrameDecoder decoder;
  decoder.append(bytes.data(), bytes.size());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(header.type,
            static_cast<std::uint16_t>(FrameType::SlowLogRequest));
  EXPECT_EQ(parseSlowLogRequest(payload).maxRecords, 16u);
  ASSERT_TRUE(decoder.next(header, payload));
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::SlowLog));
  EXPECT_EQ(parseSlowLog(payload), "{\"seq\":0}\n");
}

TEST(CodecHostile, TruncatedSlowLogRequestThrows) {
  std::string bytes;
  encodeSlowLogRequest(bytes, 3);
  FrameHeader header;
  const std::string full = decodeOne(bytes, header);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW((void)parseSlowLogRequest(full.substr(0, cut)), CodecError)
        << "SlowLogRequest cut at " << cut;
  }
  EXPECT_THROW((void)parseSlowLogRequest(full + '\0'), CodecError);
}

}  // namespace
}  // namespace osel::service
