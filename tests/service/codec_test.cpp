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
  const ErrorView error = parseError(payload);
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
  const symbolic::Bindings bindings{{"n", 64}, {"m", 32}};
  const std::vector<std::string_view> slots{"n"};
  const std::vector<std::int64_t> values{1, 2};
  std::vector<std::string> payloads;
  {
    std::string bytes;
    encodeDecideRequest(bytes, 5, "gemm_k1", bindings);
    FrameHeader header;
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecideBatch(bytes, 5, "gemm_k1", slots, 2, values);
    FrameHeader header;
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecision(bytes, 5, sampleDecision());
    FrameHeader header;
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecisionBatch(bytes, 5, std::vector<runtime::Decision>(
                                      2, sampleDecision()));
    FrameHeader header;
    payloads.push_back(decodeOne(bytes, header));
  }

  for (std::size_t which = 0; which < payloads.size(); ++which) {
    const std::string& full = payloads[which];
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::string truncated = full.substr(0, cut);
      DecideRequestView request;
      DecideBatchView batch;
      DecisionView decision;
      std::vector<DecisionView> decisions;
      switch (which) {
        case 0:
          EXPECT_THROW(parseDecideRequest(truncated, request), CodecError)
              << "DecideRequest cut at " << cut;
          break;
        case 1:
          EXPECT_THROW(parseDecideBatch(truncated, batch), CodecError)
              << "DecideBatch cut at " << cut;
          break;
        case 2:
          EXPECT_THROW(parseDecision(truncated, decision), CodecError)
              << "Decision cut at " << cut;
          break;
        default:
          EXPECT_THROW(parseDecisionBatch(truncated, decisions), CodecError)
              << "DecisionBatch cut at " << cut;
          break;
      }
    }
  }
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
  std::string payload(sizeof(DecideRequestFrame), '\0');
  DecideRequestFrame request;
  request.regionNameBytes = 0;
  request.bindingCount = 0x40000000u;
  std::memcpy(payload.data(), &request, sizeof(request));
  DecideRequestView requestView;
  EXPECT_THROW(parseDecideRequest(payload, requestView), CodecError);

  // slotCount * rowCount value block missing.
  payload.assign(sizeof(DecideBatchFrame), '\0');
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
  // values == 0 remaining bytes), so without its own guard a 32-byte frame
  // could claim 4 billion rows and drive the server into rowCount-sized
  // allocations.
  std::string payload(sizeof(DecideBatchFrame), '\0');
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
  std::vector<std::string> seeds;
  {
    std::string bytes;
    encodeDecideRequest(bytes, 1, "gemm_k1", {{"n", 64}, {"m", 8}});
    FrameHeader header;
    seeds.push_back(decodeOne(bytes, header));
    bytes.clear();
    const std::vector<std::string_view> slots{"n", "m"};
    const std::vector<std::int64_t> values{1, 2, 3, 4};
    encodeDecideBatch(bytes, 1, "gemm_k1", slots, 2, values);
    seeds.push_back(decodeOne(bytes, header));
    bytes.clear();
    encodeDecisionBatch(bytes, 1,
                        std::vector<runtime::Decision>(2, sampleDecision()));
    seeds.push_back(decodeOne(bytes, header));
  }
  std::mt19937 rng(2019);  // deterministic: this is a regression corpus
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = seeds[rng() % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] =
          static_cast<char>(static_cast<unsigned char>(rng()));
    }
    DecideRequestView request;
    DecideBatchView batch;
    std::vector<DecisionView> decisions;
    try {
      parseDecideRequest(mutated, request);
    } catch (const CodecError&) {
    }
    try {
      parseDecideBatch(mutated, batch);
    } catch (const CodecError&) {
    }
    try {
      parseDecisionBatch(mutated, decisions);
    } catch (const CodecError&) {
    }
  }
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
// The kFeatureTraceContext layouts are negotiation-dependent: with the
// feature granted every decide/decision/error frame carries a 16-byte
// TraceContextBlock after its fixed struct; without it the frames must stay
// byte-identical to the pre-feature layout. Both halves are fuzzed.

TraceContextBlock sampleTrace() {
  TraceContextBlock trace;
  trace.traceId = 0xABCDEF0123456789ull;
  trace.flags = kTraceFlagSampled;
  return trace;
}

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
  parseDecideRequest(requestPayload, request, true);
  EXPECT_TRUE(request.hasTrace);
  EXPECT_EQ(request.trace.traceId, trace.traceId);
  EXPECT_EQ(request.trace.flags, kTraceFlagSampled);
  EXPECT_EQ(request.region, "gemm_k1");
  ASSERT_EQ(request.bindings.size(), 1u);
  EXPECT_EQ(request.bindings[0].value, 64);

  bytes.clear();
  encodeDecideBatch(bytes, 5, "gemm_k1", slots, 2, values, &trace);
  const std::string batchPayload = decodeOne(bytes, header);
  DecideBatchView batch;
  parseDecideBatch(batchPayload, batch, true);
  EXPECT_TRUE(batch.hasTrace);
  EXPECT_EQ(batch.trace.traceId, trace.traceId);
  EXPECT_EQ(batch.value(0, 1), 2);

  bytes.clear();
  encodeDecision(bytes, 5, sampleDecision(), &trace);
  const std::string decisionPayload = decodeOne(bytes, header);
  DecisionView decision;
  parseDecision(decisionPayload, decision, true);
  EXPECT_TRUE(decision.hasTrace);
  EXPECT_EQ(decision.trace.traceId, trace.traceId);
  EXPECT_EQ(decision.decision.diagnostic, "all models agree");

  bytes.clear();
  encodeDecisionBatch(bytes, 1000,
                      std::vector<runtime::Decision>(2, sampleDecision()),
                      &trace);
  const std::string decisionBatchPayload = decodeOne(bytes, header);
  std::vector<DecisionView> views;
  parseDecisionBatch(decisionBatchPayload, views, true);
  ASSERT_EQ(views.size(), 2u);
  // One shared frame-level block, echoed into every row view.
  EXPECT_TRUE(views[0].hasTrace);
  EXPECT_TRUE(views[1].hasTrace);
  EXPECT_EQ(views[1].trace.traceId, trace.traceId);

  bytes.clear();
  encodeError(bytes, WireCode::Shed, "queue full", &trace);
  const std::string errorPayload = decodeOne(bytes, header);
  const ErrorView error = parseError(errorPayload, true);
  EXPECT_TRUE(error.hasTrace);
  EXPECT_EQ(error.trace.traceId, trace.traceId);
  EXPECT_EQ(error.message, "queue full");
}

TEST(CodecTrace, NegotiationMismatchIsRejectedBothWays) {
  // A trace-carrying frame parsed trace-off has 16 trailing bytes; a plain
  // frame parsed trace-on is 16 bytes short. Either way the peer is
  // half-speaking the feature and the parse must throw, never misread.
  const TraceContextBlock trace = sampleTrace();
  FrameHeader header;
  std::string bytes;
  encodeDecideRequest(bytes, 5, "gemm_k1", {{"n", 64}}, &trace);
  const std::string withTrace = decodeOne(bytes, header);
  bytes.clear();
  encodeDecideRequest(bytes, 5, "gemm_k1", {{"n", 64}});
  const std::string withoutTrace = decodeOne(bytes, header);

  DecideRequestView view;
  EXPECT_THROW(parseDecideRequest(withTrace, view, false), CodecError);
  EXPECT_THROW(parseDecideRequest(withoutTrace, view, true), CodecError);

  bytes.clear();
  encodeDecision(bytes, 5, sampleDecision(), &trace);
  const std::string decisionWith = decodeOne(bytes, header);
  bytes.clear();
  encodeDecision(bytes, 5, sampleDecision());
  const std::string decisionWithout = decodeOne(bytes, header);
  DecisionView decision;
  EXPECT_THROW(parseDecision(decisionWith, decision, false), CodecError);
  EXPECT_THROW(parseDecision(decisionWithout, decision, true), CodecError);
}

TEST(CodecTrace, EveryTruncationOfEveryTraceFrameThrowsBadFrame) {
  const TraceContextBlock trace = sampleTrace();
  const symbolic::Bindings bindings{{"n", 64}, {"m", 32}};
  const std::vector<std::string_view> slots{"n"};
  const std::vector<std::int64_t> values{1, 2};
  FrameHeader header;
  std::vector<std::string> payloads;
  {
    std::string bytes;
    encodeDecideRequest(bytes, 5, "gemm_k1", bindings, &trace);
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecideBatch(bytes, 5, "gemm_k1", slots, 2, values, &trace);
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecision(bytes, 5, sampleDecision(), &trace);
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeDecisionBatch(bytes, 5,
                        std::vector<runtime::Decision>(2, sampleDecision()),
                        &trace);
    payloads.push_back(decodeOne(bytes, header));
  }
  {
    std::string bytes;
    encodeError(bytes, WireCode::Shed, "queue full", &trace);
    payloads.push_back(decodeOne(bytes, header));
  }

  for (std::size_t which = 0; which < payloads.size(); ++which) {
    const std::string& full = payloads[which];
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::string truncated = full.substr(0, cut);
      DecideRequestView request;
      DecideBatchView batch;
      DecisionView decision;
      std::vector<DecisionView> decisions;
      switch (which) {
        case 0:
          EXPECT_THROW(parseDecideRequest(truncated, request, true),
                       CodecError)
              << "traced DecideRequest cut at " << cut;
          break;
        case 1:
          EXPECT_THROW(parseDecideBatch(truncated, batch, true), CodecError)
              << "traced DecideBatch cut at " << cut;
          break;
        case 2:
          EXPECT_THROW(parseDecision(truncated, decision, true), CodecError)
              << "traced Decision cut at " << cut;
          break;
        case 3:
          EXPECT_THROW(parseDecisionBatch(truncated, decisions, true),
                       CodecError)
              << "traced DecisionBatch cut at " << cut;
          break;
        default:
          EXPECT_THROW((void)parseError(truncated, true), CodecError)
              << "traced Error cut at " << cut;
          break;
      }
    }
  }
}

TEST(CodecTrace, RandomMutationsOfTraceFramesNeverEscapeAsNonCodecErrors) {
  const TraceContextBlock trace = sampleTrace();
  std::vector<std::string> seeds;
  {
    std::string bytes;
    FrameHeader header;
    encodeDecideRequest(bytes, 1, "gemm_k1", {{"n", 64}, {"m", 8}}, &trace);
    seeds.push_back(decodeOne(bytes, header));
    bytes.clear();
    const std::vector<std::string_view> slots{"n", "m"};
    const std::vector<std::int64_t> values{1, 2, 3, 4};
    encodeDecideBatch(bytes, 1, "gemm_k1", slots, 2, values, &trace);
    seeds.push_back(decodeOne(bytes, header));
    bytes.clear();
    encodeDecisionBatch(bytes, 1,
                        std::vector<runtime::Decision>(2, sampleDecision()),
                        &trace);
    seeds.push_back(decodeOne(bytes, header));
  }
  std::mt19937 rng(2026);  // deterministic: this is a regression corpus
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = seeds[rng() % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] =
          static_cast<char>(static_cast<unsigned char>(rng()));
    }
    // Each mutant is parsed under both negotiation states: mutations must
    // surface as CodecError regardless of which layout the parser expects.
    for (const bool traced : {true, false}) {
      DecideRequestView request;
      DecideBatchView batch;
      std::vector<DecisionView> decisions;
      try {
        parseDecideRequest(mutated, request, traced);
      } catch (const CodecError&) {
      }
      try {
        parseDecideBatch(mutated, batch, traced);
      } catch (const CodecError&) {
      }
      try {
        parseDecisionBatch(mutated, decisions, traced);
      } catch (const CodecError&) {
      }
    }
  }
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
