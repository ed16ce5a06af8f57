// The order in which oseld answers and records a decide frame: the reply
// is sent first, and the frame's record phase (explain publish, per-frame
// counters and stage samples) runs before the worker reads the
// connection's next frame. So a connection's next frame sees everything its
// earlier frames recorded — request-reply, pipelined in one write, or after
// the client hung up. oseld decides every row afresh: no frame touches the
// region's decision cache. Labelled test_service; the tsan preset runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "service/client.h"
#include "service/codec.h"
#include "service/server.h"

namespace osel::service {
namespace {

using namespace osel::ir;

constexpr std::string_view kRegion = "stream";

TargetRegion streamKernel() {
  return RegionBuilder(std::string(kRegion))
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

std::string freshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/osel_record_order_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::unique_ptr<Server> startServer() {
  const std::array<TargetRegion, 1> regions{streamKernel()};
  const std::array<mca::MachineModel, 1> hosts{mca::MachineModel::power9()};
  ServiceOptions options;
  options.socketPath = freshSocketPath();
  options.workerThreads = 2;
  auto server = std::make_unique<Server>(compiler::compileAll(regions, hosts),
                                         runtime::RuntimeOptions{}, options);
  server->registerRegion(streamKernel());
  server->start();
  return server;
}

std::uint64_t counter(Server& server, const char* name) {
  return server.session().metrics().counter(name).value();
}

/// The region's decision cache saw no traffic.
void expectCacheUntouched(Server& server) {
  const runtime::DecisionCache::Stats stats =
      server.runtime().decisionCacheStats(std::string(kRegion));
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

/// `rows` sizes no earlier frame of these tests decided.
std::vector<std::int64_t> sizes(std::size_t rows, std::int64_t first) {
  std::vector<std::int64_t> values(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    values[r] = first + 8 * static_cast<std::int64_t>(r);
  }
  return values;
}

constexpr std::size_t kRows = 32;
const std::vector<std::string_view> kSlots{"n"};

TEST(RecordOrder, BatchReplyThenPingSeesTheFramesRecord) {
  const std::unique_ptr<Server> server = startServer();
  Client client = Client::connect(server->options().socketPath);
  const std::vector<std::int64_t> values = sizes(kRows, 64);
  std::vector<runtime::Decision> decisions;
  client.decideBatch(kRegion, kSlots, kRows, values, decisions);
  client.ping();
  // The Ping was read after the batch's record phase: every row is
  // published as an explain record and counted.
  EXPECT_EQ(server->session().explainRing().recorded(), kRows);
  EXPECT_EQ(counter(*server, "service.decisions"), kRows);

  // Resending the frame decides it afresh, row for row, with the same
  // decisions.
  std::vector<runtime::Decision> again;
  client.decideBatch(kRegion, kSlots, kRows, values, again);
  client.ping();
  EXPECT_EQ(server->session().explainRing().recorded(), 2 * kRows);
  EXPECT_EQ(counter(*server, "service.decisions"), 2 * kRows);
  EXPECT_EQ(counter(*server, "decision.cache_hit"), 0u);
  expectCacheUntouched(*server);
  ASSERT_EQ(again.size(), kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(again[r].device, decisions[r].device);
    EXPECT_EQ(again[r].cpu.seconds, decisions[r].cpu.seconds);
    EXPECT_EQ(again[r].gpu.totalSeconds, decisions[r].gpu.totalSeconds);
  }
}

TEST(RecordOrder, PipelinedFramesSeeTheEarlierFramesRecord) {
  const std::unique_ptr<Server> server = startServer();
  Socket raw = connectUnix(server->options().socketPath);
  std::string out;
  encodeHello(out, HelloFrame{});
  // The same fresh frame twice, then a Ping, in one write: the second
  // frame is decided after the first one's record phase, even when the
  // three arrive in one read.
  const std::vector<std::int64_t> values = sizes(kRows, 1024);
  encodeDecideBatch(out, 1, kRegion, kSlots, kRows, values);
  encodeDecideBatch(out, 100, kRegion, kSlots, kRows, values);
  encodePing(out);
  sendAll(raw, out);

  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[16 * 1024];
  std::vector<std::uint16_t> types;
  while (types.size() < 4) {
    if (decoder.next(header, payload)) {
      types.push_back(header.type);
      continue;
    }
    const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "server closed unexpectedly";
    decoder.append(buffer, got);
  }
  EXPECT_EQ(types[0], static_cast<std::uint16_t>(FrameType::HelloAck));
  EXPECT_EQ(types[1], static_cast<std::uint16_t>(FrameType::DecisionBatch));
  EXPECT_EQ(types[2], static_cast<std::uint16_t>(FrameType::DecisionBatch));
  EXPECT_EQ(types[3], static_cast<std::uint16_t>(FrameType::Pong));
  // The Ping ran the second frame's record phase before it was answered;
  // one more round trip lets the flush bookkeeping land too.
  out.clear();
  encodePing(out);
  sendAll(raw, out);
  while (!decoder.next(header, payload)) {
    const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "server closed unexpectedly";
    decoder.append(buffer, got);
  }
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Pong));
  const obs::MetricsRegistry::Snapshot snapshot =
      server->session().metrics().snapshot();
  for (const char* name : {"service.record_s", "service.request_s",
                           "service.decide_s", "service.batch_rows"}) {
    std::uint64_t count = 0;
    for (const auto& entry : snapshot.histograms) {
      if (entry.name == name) count = entry.stats.count;
    }
    EXPECT_EQ(count, 2u) << name;
  }
  EXPECT_EQ(counter(*server, "service.decisions"), 2 * kRows);
  expectCacheUntouched(*server);
  // The first frame's explain records were published before the second
  // frame's decide began.
  const std::vector<obs::DecisionExplain> records =
      server->session().explainRing().snapshot();
  ASSERT_EQ(records.size(), 2 * kRows);
  std::vector<obs::TraceEvent> decides;
  for (const obs::TraceEvent& event : server->session().snapshot()) {
    if (std::string_view(event.name) == "decide.batch") {
      decides.push_back(event);
    }
  }
  ASSERT_EQ(decides.size(), 2u);
  const obs::TraceEvent& secondDecide =
      decides[0].seq < decides[1].seq ? decides[1] : decides[0];
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_LE(records[r].atNs, secondDecide.startNs) << "row " << r;
  }
}

TEST(RecordOrder, AClientThatHangsUpAfterItsReplyStillGetsItsRecord) {
  const std::unique_ptr<Server> server = startServer();
  {
    Client client = Client::connect(server->options().socketPath);
    const std::vector<std::int64_t> values = sizes(kRows, 2048);
    std::vector<runtime::Decision> decisions;
    client.decideBatch(kRegion, kSlots, kRows, values, decisions);
    ASSERT_EQ(decisions.size(), kRows);
  }  // hangs up with no further frame
  server->stop();
  EXPECT_EQ(server->session().explainRing().recorded(), kRows);
  EXPECT_EQ(counter(*server, "service.decisions"), kRows);
  expectCacheUntouched(*server);
  const obs::MetricsRegistry::Snapshot snapshot =
      server->session().metrics().snapshot();
  std::uint64_t recordFrames = 0;
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == "service.record_s") recordFrames = entry.stats.count;
  }
  EXPECT_EQ(recordFrames, 1u);
}

}  // namespace
}  // namespace osel::service
