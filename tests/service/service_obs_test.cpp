// Request-scoped observability of the oseld service, end to end over real
// sockets: the version 2 frame layouts (every decide frame, decision reply
// and post-handshake error carries a TraceContextBlock, pinned against
// hand-assembled golden bytes), trace-context echo on every reply, trace
// blocks on post-handshake errors (FrameTooLarge included), the per-stage
// latency histograms accounting for >= 99% of request wall time, the
// slow-request capture ring served as JSONL over the SlowLog RPC, the
// stage/drop-counter series in the Prometheus exposition, and the
// record-phase histogram (one sample per decide frame, exported). Labelled
// test_service_obs; the tsan preset runs this binary under ThreadSanitizer
// and the asan-ubsan-service-obs preset under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/server.h"

namespace osel::service {
namespace {

using namespace osel::ir;

TargetRegion streamKernel(const std::string& name) {
  return RegionBuilder(name)
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

std::vector<TargetRegion> testRegions() {
  std::vector<TargetRegion> regions;
  regions.push_back(streamKernel("stream"));
  regions.push_back(streamKernel("stream_b"));
  return regions;
}

pad::AttributeDatabase makeDatabase() {
  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  return compiler::compileAll(testRegions(), hosts);
}

/// A unique Unix socket path per test instance (paths are global state).
std::string freshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/osel_service_obs_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

struct TestServer {
  explicit TestServer(ServiceOptions options = {}) {
    if (options.socketPath.empty()) options.socketPath = freshSocketPath();
    server = std::make_unique<Server>(makeDatabase(),
                                      runtime::RuntimeOptions{}, options);
    for (TargetRegion& region : testRegions()) {
      server->registerRegion(std::move(region));
    }
  }
  std::unique_ptr<Server> server;
};

// --- Golden-byte assembly (the version 2 layouts) --------------------------
// Hand-built from the osel_abi.h struct definitions alone, so a codec
// change that silently perturbs the wire layout fails here even if encode
// and parse drift together.

template <typename T>
void appendPod(std::string& out, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out.append(bytes, sizeof(T));
}

void appendHeader(std::string& out, FrameType type, std::uint32_t length) {
  FrameHeader header;
  header.length = length;
  header.type = static_cast<std::uint16_t>(type);
  appendPod(out, header);
}

constexpr auto kBlock = static_cast<std::uint32_t>(sizeof(TraceContextBlock));

std::string goldenDecideRequest(std::uint64_t requestId,
                                std::string_view region,
                                std::string_view symbol, std::int64_t value,
                                const TraceContextBlock& trace) {
  std::string out;
  const auto length = static_cast<std::uint32_t>(
      sizeof(DecideRequestFrame) + kBlock + region.size() +
      sizeof(std::uint32_t) + sizeof(std::int64_t) + symbol.size());
  appendHeader(out, FrameType::DecideRequest, length);
  DecideRequestFrame fixed;
  fixed.requestId = requestId;
  fixed.regionNameBytes = static_cast<std::uint32_t>(region.size());
  fixed.bindingCount = 1;
  appendPod(out, fixed);
  appendPod(out, trace);
  out.append(region);
  appendPod(out, static_cast<std::uint32_t>(symbol.size()));
  appendPod(out, value);
  out.append(symbol);
  return out;
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

DecisionRecord goldenRecord(std::uint64_t requestId,
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

std::string goldenDecision(std::uint64_t requestId,
                           const runtime::Decision& decision,
                           const TraceContextBlock& trace) {
  std::string out;
  const auto length = static_cast<std::uint32_t>(
      sizeof(DecisionRecord) + kBlock + decision.diagnostic.size());
  appendHeader(out, FrameType::Decision, length);
  appendPod(out, goldenRecord(requestId, decision));
  appendPod(out, trace);
  out.append(decision.diagnostic);
  return out;
}

std::string goldenDecisionBatch(std::uint64_t requestId,
                                std::span<const runtime::Decision> decisions,
                                const TraceContextBlock& trace) {
  std::string records;
  std::string diagnostics;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    appendPod(records, goldenRecord(requestId + i, decisions[i]));
    diagnostics += decisions[i].diagnostic;
  }
  std::string out;
  appendHeader(out, FrameType::DecisionBatch,
               static_cast<std::uint32_t>(sizeof(DecisionBatchFrame) + kBlock +
                                          records.size() + diagnostics.size()));
  DecisionBatchFrame fixed;
  fixed.count = static_cast<std::uint32_t>(decisions.size());
  appendPod(out, fixed);
  appendPod(out, trace);
  return out + records + diagnostics;
}

std::string goldenDecideBatch(std::uint64_t requestId, std::string_view region,
                              std::string_view slot,
                              std::span<const std::int64_t> values,
                              const TraceContextBlock& trace) {
  std::string out;
  const auto length = static_cast<std::uint32_t>(
      sizeof(DecideBatchFrame) + kBlock + region.size() +
      sizeof(std::uint32_t) + slot.size() +
      values.size() * sizeof(std::int64_t));
  appendHeader(out, FrameType::DecideBatch, length);
  DecideBatchFrame fixed;
  fixed.requestId = requestId;
  fixed.regionNameBytes = static_cast<std::uint32_t>(region.size());
  fixed.slotCount = 1;
  fixed.rowCount = static_cast<std::uint32_t>(values.size());
  appendPod(out, fixed);
  appendPod(out, trace);
  out.append(region);
  appendPod(out, static_cast<std::uint32_t>(slot.size()));
  out.append(slot);
  for (const std::int64_t value : values) appendPod(out, value);
  return out;
}

/// `trace == nullptr` is the pre-handshake Error, which carries no block.
std::string goldenError(WireCode code, std::string_view message,
                        const TraceContextBlock* trace) {
  std::string out;
  const auto length = static_cast<std::uint32_t>(
      sizeof(ErrorFrame) + (trace != nullptr ? kBlock : 0) + message.size());
  appendHeader(out, FrameType::Error, length);
  ErrorFrame fixed;
  fixed.wireCode = static_cast<std::uint32_t>(code);
  fixed.messageBytes = static_cast<std::uint32_t>(message.size());
  appendPod(out, fixed);
  if (trace != nullptr) appendPod(out, *trace);
  out.append(message);
  return out;
}

/// Reads one complete frame from a raw socket.
FrameHeader readOneFrame(const Socket& socket, FrameDecoder& decoder,
                         std::string& payload) {
  FrameHeader header;
  char buffer[64 * 1024];
  for (;;) {
    if (decoder.next(header, payload)) return header;
    const std::size_t got = recvSome(socket, buffer, sizeof(buffer));
    EXPECT_GT(got, 0u) << "server closed without answering";
    if (got == 0) return header;
    decoder.append(buffer, got);
  }
}

TEST(ServiceObsWire, FeatureOffEncodersMatchHandAssembledGoldenBytes) {
  // One layout per frame. The feature-off call form (a null `trace`) writes
  // a zeroed block in the same place a caller's block goes; only the
  // pre-handshake Error has none.
  TraceContextBlock traced;
  traced.traceId = 0x0123456789abcdefull;
  traced.flags = kTraceFlagSampled;
  const TraceContextBlock zeroed;
  const runtime::Decision decision = sampleDecision();
  const std::vector<runtime::Decision> decisions{decision, {}};
  const std::vector<std::int64_t> values{16, 64, 512};
  const std::vector<std::string_view> slots{"n"};
  const std::array<const TraceContextBlock*, 2> traces{&traced, nullptr};
  for (const TraceContextBlock* trace : traces) {
    const TraceContextBlock& block = trace != nullptr ? *trace : zeroed;
    std::string encoded;
    encodeDecideRequest(encoded, 7, "stream", symbolic::Bindings{{"n", 96}},
                        trace);
    EXPECT_EQ(encoded, goldenDecideRequest(7, "stream", "n", 96, block));

    encoded.clear();
    encodeDecision(encoded, 7, decision, trace);
    EXPECT_EQ(encoded, goldenDecision(7, decision, block));

    encoded.clear();
    encodeDecisionBatch(encoded, 40, decisions, trace);
    EXPECT_EQ(encoded, goldenDecisionBatch(40, decisions, block));

    encoded.clear();
    encodeDecideBatch(encoded, 11, "stream", slots,
                      static_cast<std::uint32_t>(values.size()), values, trace);
    EXPECT_EQ(encoded, goldenDecideBatch(11, "stream", "n", values, block));
  }

  std::string encoded;
  encodeError(encoded, WireCode::UnknownType, "oseld: unknown frame type 42",
              &traced);
  EXPECT_EQ(encoded, goldenError(WireCode::UnknownType,
                                 "oseld: unknown frame type 42", &traced));
  encoded.clear();
  encodeError(encoded, WireCode::UnsupportedVersion, "oseld: no version");
  EXPECT_EQ(encoded, goldenError(WireCode::UnsupportedVersion,
                                 "oseld: no version", nullptr));
}

TEST(ServiceObs, TraceContextEchoesOnEveryReply) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);
  ASSERT_NE(client.featureBits() & kFeatureSlowLog, 0u);

  // Client::decide verifies the echoed trace id internally and throws on a
  // mismatch, so surviving these calls is the assertion.
  TraceContextBlock trace;
  trace.traceId = 0x1122334455667788ull;
  trace.flags = kTraceFlagSampled;
  const symbolic::Bindings bindings{{"n", 96}};
  EXPECT_TRUE(client.decide("stream", bindings, &trace).valid);

  const std::vector<std::int64_t> sizes{16, 64, 512};
  const std::vector<std::string_view> slots{"n"};
  std::vector<runtime::Decision> decisions;
  trace.traceId = 0x99aabbccddeeff00ull;
  trace.flags = 0;
  client.decideBatch("stream", slots,
                     static_cast<std::uint32_t>(sizes.size()), sizes,
                     decisions, &trace);
  EXPECT_EQ(decisions.size(), sizes.size());

  // No caller-provided block: the client sends (and the server echoes) a
  // zeroed one.
  EXPECT_TRUE(client.decide("stream", bindings).valid);
}

/// A raw connection past the handshake, with its own frame decoder.
struct RawConnection {
  explicit RawConnection(const std::string& path) : socket(connectUnix(path)) {
    HelloFrame hello;
    hello.featureBits = Client::kRequestedFeatures;
    std::string out;
    encodeHello(out, hello);
    sendAll(socket, out);
    const FrameHeader header = readOneFrame(socket, decoder, payload);
    EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::HelloAck));
  }

  /// Sends a bare frame header and reads the server's Error answer.
  ErrorView errorFor(FrameHeader header) {
    std::string out(reinterpret_cast<const char*>(&header), sizeof(header));
    sendAll(socket, out);
    const FrameHeader reply = readOneFrame(socket, decoder, payload);
    EXPECT_EQ(reply.type, static_cast<std::uint16_t>(FrameType::Error));
    // Without its block the reply is malformed: the layout is fixed.
    EXPECT_THROW((void)parseError(payload, false), CodecError);
    return parseError(payload, true);
  }

  Socket socket;
  FrameDecoder decoder;
  std::string payload;
};

TEST(ServiceObs, PostHandshakeErrorsCarryTraceBlockOnTraceConnections) {
  TestServer fixture;
  fixture.server->start();
  RawConnection raw(fixture.server->options().socketPath);

  // An unknown frame type never parsed far enough to learn a trace id, but
  // the reply still carries the (zeroed) block.
  FrameHeader junk;
  junk.length = 0;
  junk.type = 99;
  const ErrorView error = raw.errorFor(junk);
  EXPECT_EQ(error.code, WireCode::UnknownType);
  EXPECT_EQ(error.trace.traceId, 0u);
}

TEST(ServiceObs, FrameTooLargeAfterHandshakeCarriesTraceBlock) {
  // The length-prefix check fails before any payload is read, on the
  // decoder's path rather than the dispatcher's; its Error carries the
  // block like every other post-handshake one, then the server closes.
  ServiceOptions options;
  options.maxFrameBytes = 4096;
  TestServer fixture(options);
  fixture.server->start();
  RawConnection raw(fixture.server->options().socketPath);

  FrameHeader huge;
  huge.length = 1u << 20;
  huge.type = static_cast<std::uint16_t>(FrameType::DecideRequest);
  const ErrorView error = raw.errorFor(huge);
  EXPECT_EQ(error.code, WireCode::FrameTooLarge);
  EXPECT_EQ(error.trace.traceId, 0u);
}

const obs::Histogram::Stats* findHistogram(
    const obs::MetricsRegistry::Snapshot& snapshot, std::string_view name) {
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == name) return &entry.stats;
  }
  return nullptr;
}

TEST(ServiceObs, StageHistogramsAccountForRequestWallTime) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);

  const std::vector<std::int64_t> sizes{16, 64, 96, 512};
  for (int i = 0; i < 200; ++i) {
    const symbolic::Bindings bindings{{"n", sizes[i % sizes.size()]}};
    (void)client.decide("stream", bindings);
  }
  const std::vector<std::string_view> slots{"n"};
  std::vector<runtime::Decision> decisions;
  for (int i = 0; i < 20; ++i) {
    client.decideBatch("stream", slots,
                       static_cast<std::uint32_t>(sizes.size()), sizes,
                       decisions);
  }

  // The worker records request_s/send_s after the flush that unblocked the
  // client; one more round-trip on the same (serially served) connection
  // guarantees those records landed before the snapshot.
  client.ping();

  const obs::MetricsRegistry::Snapshot snapshot =
      fixture.server->session().metrics().snapshot();
  const obs::Histogram::Stats* decode =
      findHistogram(snapshot, "service.decode_s");
  const obs::Histogram::Stats* decide =
      findHistogram(snapshot, "service.decide_s");
  const obs::Histogram::Stats* encode =
      findHistogram(snapshot, "service.encode_s");
  const obs::Histogram::Stats* send = findHistogram(snapshot, "service.send_s");
  const obs::Histogram::Stats* request =
      findHistogram(snapshot, "service.request_s");
  ASSERT_NE(decode, nullptr);
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(encode, nullptr);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(request, nullptr);

  // One sample per decide-carrying frame in every stage histogram.
  EXPECT_EQ(request->count, 220u);
  EXPECT_EQ(decode->count, 220u);
  EXPECT_EQ(decide->count, 220u);
  EXPECT_EQ(encode->count, 220u);
  EXPECT_EQ(send->count, 220u);

  // The acceptance criterion: the named stages account for >= 99% of the
  // total request wall time. For a request-reply client the stage spans
  // tile the wall exactly, so the only slack allowed here is double
  // rounding in the ns -> seconds conversion.
  const double stages = decode->sum + decide->sum + encode->sum + send->sum;
  ASSERT_GT(request->sum, 0.0);
  const double ratio = stages / request->sum;
  EXPECT_GE(ratio, 0.99) << "unattributed service time: stages " << stages
                         << "s vs wall " << request->sum << "s";
  EXPECT_LE(ratio, 1.0 + 1e-6);
}

TEST(ServiceObs, RecordHistogramCountsDecideFramesAndIsExported) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);
  const std::vector<std::int64_t> sizes{16, 64, 96, 512};
  for (int i = 0; i < 12; ++i) {
    (void)client.decide("stream", {{"n", sizes[i % sizes.size()]}});
  }
  const std::vector<std::string_view> slots{"n"};
  std::vector<runtime::Decision> decisions;
  for (int i = 0; i < 5; ++i) {
    client.decideBatch("stream_b", slots,
                       static_cast<std::uint32_t>(sizes.size()), sizes,
                       decisions);
  }
  // A Ping is no decide frame: it adds no sample, and it is read only
  // after the last decide frame's record phase ran.
  client.ping();

  const obs::MetricsRegistry::Snapshot snapshot =
      fixture.server->session().metrics().snapshot();
  const obs::Histogram::Stats* record =
      findHistogram(snapshot, "service.record_s");
  const obs::Histogram::Stats* request =
      findHistogram(snapshot, "service.request_s");
  ASSERT_NE(record, nullptr);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(record->count, 17u);
  EXPECT_EQ(request->count, 17u);
  EXPECT_GT(record->sum, 0.0);

  const std::string prometheus = client.stats(StatsFormat::Prometheus);
  for (const char* series :
       {"osel_service_record_s_bucket", "osel_service_record_s_sum",
        "osel_service_record_s_count"}) {
    EXPECT_NE(prometheus.find(series), std::string::npos) << series;
  }
  EXPECT_NE(client.stats(StatsFormat::Summary).find("service.record_s"),
            std::string::npos);
}

TEST(ServiceObs, SlowLogServesThresholdCapturesAsJsonl) {
  ServiceOptions options;
  options.slowThresholdSeconds = 1e-9;  // everything is slow
  options.slowRingCapacity = 8;
  TestServer fixture(options);
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);

  TraceContextBlock trace;
  trace.traceId = 9876543210123456789ull;
  const symbolic::Bindings bindings{{"n", 96}};
  (void)client.decide("stream", bindings, &trace);
  (void)client.decide("stream_b", bindings);

  const std::string jsonl = client.slowLog();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_NE(jsonl.find("\"region\":\"stream\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"region\":\"stream_b\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cause\":\"threshold\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace_id\":9876543210123456789"), std::string::npos);
  for (const char* key :
       {"\"decode_ns\":", "\"decide_ns\":", "\"encode_ns\":", "\"send_ns\":",
        "\"wall_ns\":", "\"state_epoch\":", "\"client_id\":", "\"rows\":"}) {
    EXPECT_NE(jsonl.find(key), std::string::npos) << key;
  }

  // maxRecords trims to the newest records.
  const std::string newest = client.slowLog(1);
  EXPECT_EQ(std::count(newest.begin(), newest.end(), '\n'), 1);
  EXPECT_NE(newest.find("\"region\":\"stream_b\""), std::string::npos);
}

TEST(ServiceObs, ClientSampledRequestsAreCapturedWithThresholdOff) {
  ServiceOptions options;
  options.slowThresholdSeconds = 0.0;  // threshold capture disabled
  TestServer fixture(options);
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);

  const symbolic::Bindings bindings{{"n", 96}};
  (void)client.decide("stream", bindings);  // unsampled: not captured
  TraceContextBlock trace;
  trace.traceId = 42;
  trace.flags = kTraceFlagSampled;
  (void)client.decide("stream", bindings, &trace);

  const std::string jsonl = client.slowLog();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
  EXPECT_NE(jsonl.find("\"cause\":\"sampled\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace_id\":42"), std::string::npos);
}

TEST(ServiceObs, PrometheusExposesStageSeriesAndDropCounters) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);
  const symbolic::Bindings bindings{{"n", 96}};
  (void)client.decide("stream", bindings);

  const std::string text = client.stats(StatsFormat::Prometheus);
  for (const char* series :
       {"osel_service_decode_s_bucket", "osel_service_decide_s_sum",
        "osel_service_encode_s_count", "osel_service_send_s_bucket",
        "osel_service_request_s_count", "osel_trace_dropped_total{ring=\"events\"}",
        "osel_trace_dropped_total{ring=\"explain\"}",
        "osel_trace_dropped_total{ring=\"slow\"}", "osel_slow_recorded_total"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

}  // namespace
}  // namespace osel::service
