// The oseld server end to end over real sockets: lifecycle storms,
// stop() against spinning and blocked workers, the CPU an idle daemon
// burns, handshake negotiation, socket-vs-in-process decision equivalence
// (bit-identical on the wire-stable subset), connection-queue shedding,
// concurrent clients racing registerRegion, and the HTTP metrics endpoint.
// Labelled test_service; the tsan preset runs this binary under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "runtime/batch.h"
#include "service/client.h"
#include "service/server.h"

namespace osel::service {
namespace {

using namespace osel::ir;
using namespace std::chrono_literals;

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

pad::AttributeDatabase makeDatabase(
    const std::vector<TargetRegion>& regions = testRegions()) {
  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  return compiler::compileAll(regions, hosts);
}

/// A unique Unix socket path per test instance (paths are global state).
std::string freshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/osel_service_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A server over `database` with testRegions() registered.
struct TestServer {
  explicit TestServer(ServiceOptions options = {},
                      pad::AttributeDatabase database = makeDatabase()) {
    if (options.socketPath.empty()) options.socketPath = freshSocketPath();
    server = std::make_unique<Server>(std::move(database),
                                      runtime::RuntimeOptions{}, options);
    for (TargetRegion& region : testRegions()) {
      server->registerRegion(std::move(region));
    }
  }
  std::unique_ptr<Server> server;
};

void expectWireIdentical(const runtime::Decision& socket,
                         const runtime::Decision& local) {
  EXPECT_EQ(socket.device, local.device);
  EXPECT_EQ(socket.valid, local.valid);
  EXPECT_EQ(socket.diagnostic, local.diagnostic);
  // Bit-identical doubles, not EXPECT_DOUBLE_EQ: the acceptance criterion.
  EXPECT_EQ(std::memcmp(&socket.cpu.seconds, &local.cpu.seconds,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&socket.gpu.totalSeconds, &local.gpu.totalSeconds,
                        sizeof(double)),
            0);
}

/// A DecideRequest frame carrying `bindings` in order, duplicates included
/// (which no Bindings map, and so no Client, can send).
std::string rawDecideRequest(
    std::uint64_t requestId, std::string_view region,
    const std::vector<std::pair<std::string, std::int64_t>>& bindings) {
  const auto appendBytes = [](std::string& out, const auto& pod) {
    out.append(reinterpret_cast<const char*>(&pod), sizeof(pod));
  };
  std::string payload;
  DecideRequestFrame frame;
  frame.requestId = requestId;
  frame.regionNameBytes = static_cast<std::uint32_t>(region.size());
  frame.bindingCount = static_cast<std::uint32_t>(bindings.size());
  appendBytes(payload, frame);
  appendBytes(payload, TraceContextBlock{});
  payload.append(region);
  for (const auto& [symbol, value] : bindings) {
    appendBytes(payload, static_cast<std::uint32_t>(symbol.size()));
    appendBytes(payload, value);
    payload.append(symbol);
  }
  FrameHeader header;
  header.length = static_cast<std::uint32_t>(payload.size());
  header.type = static_cast<std::uint16_t>(FrameType::DecideRequest);
  std::string out;
  appendBytes(out, header);
  return out + payload;
}

TEST(Service, StartStopStorm) {
  TestServer fixture;
  Server& server = *fixture.server;
  for (int cycle = 0; cycle < 5; ++cycle) {
    server.start();
    EXPECT_TRUE(server.running());
    // Odd cycles exercise stop-with-a-live-connection.
    if (cycle % 2 == 1) {
      Client client = Client::connect(server.options().socketPath);
      client.ping();
    }
    server.stop();
    EXPECT_FALSE(server.running());
  }
}

TEST(Service, IdleWorkersStartStopStorm) {
  // Many workers, no connections, stop() right behind start(): the workers
  // are still on their way into the queue wait when stop() flags them. With
  // the flag stored outside queueMutex_, a worker between its wait predicate
  // and parking missed the notify and this join hung.
  ServiceOptions options;
  options.workerThreads = 8;
  TestServer fixture(options);
  Server& server = *fixture.server;
  for (int cycle = 0; cycle < 200; ++cycle) {
    server.start();
    server.stop();
    ASSERT_FALSE(server.running()) << "cycle " << cycle;
  }
}

TEST(Service, StopUnblocksASpinningAndABlockedWorker) {
  ServiceOptions options;
  options.workerThreads = 2;
  TestServer fixture(options);
  Server& server = *fixture.server;
  server.start();
  const std::string& path = server.options().socketPath;

  // Worker one: its client pings back to back, so each of its waits ends
  // within the spin budget and it keeps spinning right up to stop().
  std::atomic<bool> pinging{true};
  std::atomic<int> pings{0};
  Client busyClient = Client::connect(path);
  std::thread busy([&, client = std::move(busyClient)]() mutable {
    try {
      while (pinging.load()) {
        client.ping();
        pings.fetch_add(1);
      }
    } catch (const SocketError&) {
      // stop() hung up on us: expected.
    }
  });
  // Worker two: connected, then idle, so it has given up spinning and is
  // parked in the blocking recv(2).
  Client idle = Client::connect(path);
  idle.ping();
  while (pings.load() < 100) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(20ms);

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  pinging.store(false);
  busy.join();
  EXPECT_FALSE(server.running());
  EXPECT_LT(seconds, 10.0) << "stop() waited on a receiving worker";
}

/// CPU time (user + system) the whole process has consumed.
double processCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& time) {
    return static_cast<double>(time.tv_sec) +
           static_cast<double>(time.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(Service, IdleConnectionsBurnNoCpu) {
  // Eight connected, idle clients, each served by its own worker. Each
  // worker polls for at most one spin budget after its client's last reply,
  // then blocks: 8 x 50 us = 0.4 ms of CPU. Permanent spinning would burn
  // the whole window on every core the workers got; even one spinning core
  // is 300 ms. The bound, 30 ms, is a tenth of that one core and leaves
  // room for the test's own threads, the accept loop and sanitizer
  // overhead.
  constexpr std::size_t kClients = 8;
  ServiceOptions options;
  options.workerThreads = kClients;
  TestServer fixture(options);
  fixture.server->start();
  std::vector<Client> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(Client::connect(fixture.server->options().socketPath));
    clients.back().ping();
  }
  std::this_thread::sleep_for(10ms);  // let every worker settle into recv

  const double before = processCpuSeconds();
  std::this_thread::sleep_for(300ms);
  const double spent = processCpuSeconds() - before;
  EXPECT_LT(spent, 0.030) << "process burned " << spent * 1e3
                          << " ms of CPU in 300 ms with " << kClients
                          << " idle connections";
  for (Client& client : clients) client.ping();  // still served
}

TEST(Service, HandshakeNegotiatesVersionAndFeatures) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);
  EXPECT_EQ(client.version(), kProtocolVersion);
  EXPECT_EQ(client.featureBits(), kFeatureBatch | kFeatureStats |
                                      kFeaturePrometheus | kFeatureSlowLog);
  EXPECT_EQ(client.maxFrameBytes(), fixture.server->options().maxFrameBytes);
  client.ping();
}

/// Sends `hello` on a raw connection and expects the server's refusal: an
/// Error frame without a trace block (the handshake never completed).
void expectHelloRefused(const HelloFrame& hello) {
  TestServer fixture;
  fixture.server->start();
  Socket raw = connectUnix(fixture.server->options().socketPath);
  std::string out;
  encodeHello(out, hello);
  sendAll(raw, out);

  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[4096];
  for (;;) {
    if (decoder.next(header, payload)) break;
    const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "server closed without answering";
    decoder.append(buffer, got);
  }
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Error));
  EXPECT_EQ(parseError(payload, false).code, WireCode::UnsupportedVersion);
}

TEST(Service, FutureOnlyClientIsRefusedWithUnsupportedVersion) {
  HelloFrame hello;
  hello.versionMin = 99;
  hello.versionMax = 120;
  expectHelloRefused(hello);
}

TEST(Service, V1OnlyClientIsRefusedWithUnsupportedVersion) {
  // Version 2 is a flag day: the server speaks no version 1 layout.
  HelloFrame hello;
  hello.versionMin = 1;
  hello.versionMax = 1;
  expectHelloRefused(hello);
}

TEST(Service, FirstFrameMustBeHello) {
  TestServer fixture;
  fixture.server->start();
  Socket raw = connectUnix(fixture.server->options().socketPath);
  std::string out;
  encodePing(out);
  sendAll(raw, out);
  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[4096];
  for (;;) {
    if (decoder.next(header, payload)) break;
    const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "server closed without answering";
    decoder.append(buffer, got);
  }
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Error));
  EXPECT_EQ(parseError(payload, false).code, WireCode::ExpectedHello);
}

TEST(Service, DecideMatchesInProcessBitIdentical) {
  // stream_pad_only has a PAD entry but is never registered.
  std::vector<TargetRegion> padded = testRegions();
  padded.push_back(streamKernel("stream_pad_only"));
  TestServer fixture({}, makeDatabase(padded));
  fixture.server->start();
  // The reference runtime: same database, same options, in-process.
  runtime::TargetRuntime local(makeDatabase(padded), runtime::RuntimeOptions{});
  for (TargetRegion& region : testRegions()) {
    local.registerRegion(std::move(region));
  }

  Client client = Client::connect(fixture.server->options().socketPath);
  for (const std::int64_t n : {16, 96, 512, 2048}) {
    const symbolic::Bindings bindings{{"n", n}};
    expectWireIdentical(client.decide("stream", bindings),
                        local.decide("stream", bindings));
  }
  // Unknown region: the runtime degrades (valid=false, PadLookup text) and
  // the degradation crosses the wire identically.
  const symbolic::Bindings bindings{{"n", 64}};
  const runtime::Decision remote = client.decide("nonesuch", bindings);
  const runtime::Decision reference = local.decide("nonesuch", bindings);
  EXPECT_FALSE(remote.valid);
  expectWireIdentical(remote, reference);

  // Frames that leave the fast path, or bind more or fewer symbols than the
  // region reads: a required symbol missing, a symbol the region does not
  // read, no bindings at all, and a region decided through a plan compiled
  // from its PAD entry (not registered).
  const struct {
    const char* region;
    symbolic::Bindings bindings;
    bool valid;
  } frames[] = {
      {"stream", {{"m", 64}}, false},
      {"stream", {{"n", 96}, {"zzz", 7}}, true},
      {"stream", {}, false},
      {"stream_pad_only", {{"n", 64}}, true},
  };
  for (const auto& frame : frames) {
    SCOPED_TRACE(std::string(frame.region) + " with " +
                 std::to_string(frame.bindings.size()) + " bindings");
    const runtime::Decision got = client.decide(frame.region, frame.bindings);
    EXPECT_EQ(got.valid, frame.valid) << got.diagnostic;
    expectWireIdentical(got, local.decide(frame.region, frame.bindings));
  }

  // A duplicate symbol: its last value wins, as when the bindings are
  // assigned into one map in wire order.
  Socket raw = connectUnix(fixture.server->options().socketPath);
  std::string out;
  encodeHello(out, HelloFrame{});
  out += rawDecideRequest(7, "stream", {{"n", 2048}, {"n", 48}});
  sendAll(raw, out);
  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[4096];
  for (const FrameType expected : {FrameType::HelloAck, FrameType::Decision}) {
    while (!decoder.next(header, payload)) {
      const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
      ASSERT_GT(got, 0u) << "server closed unexpectedly";
      decoder.append(buffer, got);
    }
    ASSERT_EQ(header.type, static_cast<std::uint16_t>(expected));
  }
  DecisionView duplicate;
  parseDecision(payload, duplicate);
  EXPECT_EQ(duplicate.requestId, 7u);
  EXPECT_TRUE(duplicate.decision.valid);
  expectWireIdentical(duplicate.decision, local.decide("stream", {{"n", 48}}));
}

TEST(Service, DecideBatchMatchesInProcessBitIdentical) {
  TestServer fixture;
  fixture.server->start();
  runtime::TargetRuntime local(makeDatabase(), runtime::RuntimeOptions{});
  for (TargetRegion& region : testRegions()) {
    local.registerRegion(std::move(region));
  }

  const std::vector<std::int64_t> sizes{16, 64, 96, 256, 512, 1024, 2048, 37};
  const auto rows = static_cast<std::uint32_t>(sizes.size());
  const std::vector<std::string_view> slots{"n"};

  Client client = Client::connect(fixture.server->options().socketPath);
  std::vector<runtime::Decision> remote;
  client.decideBatch("stream", slots, rows, sizes, remote);

  std::vector<symbolic::Bindings> bindings(sizes.size());
  std::vector<runtime::DecideRequest> requests(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bindings[i]["n"] = sizes[i];
    requests[i] = {"stream", &bindings[i]};
  }
  std::vector<runtime::Decision> reference(sizes.size());
  local.decideBatch(requests, reference);

  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    expectWireIdentical(remote[i], reference[i]);
  }
}

TEST(Service, MalformedFrameKeepsTheConnectionUsable) {
  TestServer fixture;
  fixture.server->start();
  const std::string path = fixture.server->options().socketPath;
  Socket raw = connectUnix(path);
  std::string out;
  encodeHello(out, HelloFrame{});
  sendAll(raw, out);

  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[8192];
  const auto readFrame = [&] {
    for (;;) {
      if (decoder.next(header, payload)) return;
      const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
      ASSERT_GT(got, 0u) << "server closed unexpectedly";
      decoder.append(buffer, got);
    }
  };
  readFrame();
  ASSERT_EQ(header.type, static_cast<std::uint16_t>(FrameType::HelloAck));

  // A DecideRequest whose payload is garbage: answered BadFrame, but the
  // frame boundary held, so the next (valid) frame still works.
  out.clear();
  FrameHeader bad;
  bad.length = 4;
  bad.type = static_cast<std::uint16_t>(FrameType::DecideRequest);
  out.append(reinterpret_cast<const char*>(&bad), sizeof(bad));
  out.append("oops", 4);
  encodePing(out);
  sendAll(raw, out);
  readFrame();
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Error));
  EXPECT_EQ(parseError(payload, true).code, WireCode::BadFrame);
  readFrame();
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Pong));
}

TEST(Service, QueueOverflowShedsWithAnErrorFrame) {
  ServiceOptions options;
  options.workerThreads = 1;
  options.maxPendingConnections = 1;
  TestServer fixture(options);
  fixture.server->start();
  const std::string path = fixture.server->options().socketPath;

  // Occupy the only worker with a live, handshaken connection.
  Client held = Client::connect(path);
  held.ping();

  // Fill the one queue slot, give the accept loop time to enqueue it.
  Socket queued = connectUnix(path);
  for (int spin = 0; spin < 200 && fixture.server->connectionsAccepted() < 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The next connection must be shed: Error{Shed}, then close.
  Socket shedConnection = connectUnix(path);
  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[4096];
  for (;;) {
    if (decoder.next(header, payload)) break;
    const std::size_t got =
        recvSome(shedConnection, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "shed connection closed without an Error frame";
    decoder.append(buffer, got);
  }
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Error));
  EXPECT_EQ(parseError(payload, false).code, WireCode::Shed);
  EXPECT_GE(fixture.server->connectionsShed(), 1u);
}

TEST(Service, ConcurrentClientsRaceRegisterRegion) {
  ServiceOptions options;
  options.workerThreads = 4;
  TestServer fixture(options);
  fixture.server->start();
  const std::string path = fixture.server->options().socketPath;

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      try {
        Client client = Client::connect(path);
        const std::vector<std::string_view> slots{"n"};
        std::vector<runtime::Decision> decisions;
        for (int i = 0; i < 50; ++i) {
          const symbolic::Bindings bindings{{"n", 64 + t * 16 + i}};
          (void)client.decide("stream", bindings);
          const std::vector<std::int64_t> sizes{32, 64 + i, 128};
          client.decideBatch("stream_b", slots, 3, sizes, decisions);
        }
      } catch (const std::exception&) {
        failed.store(true);
      }
    });
  }
  // Meanwhile, re-register regions: the registry swaps entries under live
  // wire traffic while decides finish on the entries they found.
  for (int i = 0; i < 25; ++i) {
    fixture.server->registerRegion(streamKernel("stream"));
    fixture.server->registerRegion(streamKernel("stream_b"));
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_FALSE(failed.load());
}

TEST(Service, StatsOverTheSocket) {
  TestServer fixture;
  fixture.server->start();
  Client client = Client::connect(fixture.server->options().socketPath);
  (void)client.decide("stream", {{"n", 128}});
  const std::string summary = client.stats(StatsFormat::Summary);
  EXPECT_FALSE(summary.empty());
  const std::string prom = client.stats(StatsFormat::Prometheus);
  EXPECT_NE(prom.find("osel_"), std::string::npos);
  EXPECT_NE(prom.find("service_decisions"), std::string::npos);
}

TEST(Service, TcpTransportAndMetricsEndpoint) {
  ServiceOptions options;
  options.tcpPort = 0;      // pick free ports: parallel ctest safe
  options.metricsPort = 0;
  TestServer fixture(options);
  fixture.server->start();

  Client client = Client::connectPort(fixture.server->tcpPort());
  client.ping();
  (void)client.decide("stream", {{"n", 256}});

  Socket scrape = connectTcp(fixture.server->metricsPort());
  sendAll(scrape, "GET /metrics HTTP/1.0\r\n\r\n");
  std::string response;
  char buffer[8192];
  for (;;) {
    const std::size_t got = recvSome(scrape, buffer, sizeof(buffer));
    if (got == 0) break;
    response.append(buffer, got);
  }
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("osel_service_decisions"), std::string::npos);

  Socket wrongPath = connectTcp(fixture.server->metricsPort());
  sendAll(wrongPath, "GET /nope HTTP/1.0\r\n\r\n");
  response.clear();
  for (;;) {
    const std::size_t got = recvSome(wrongPath, buffer, sizeof(buffer));
    if (got == 0) break;
    response.append(buffer, got);
  }
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST(Service, BindingFreeBatchRowsFallBackToScalarFrames) {
  // A row-carrying DecideBatch with zero slots is forbidden on the wire
  // (the server could not bound rowCount), so the client sends such rows
  // as scalar frames — and the decisions still match in-process.
  TestServer fixture;
  fixture.server->start();
  runtime::TargetRuntime local(makeDatabase(), runtime::RuntimeOptions{});
  for (TargetRegion& region : testRegions()) {
    local.registerRegion(std::move(region));
  }

  Client client = Client::connect(fixture.server->options().socketPath);
  std::vector<runtime::Decision> remote;
  client.decideBatch("stream", {}, 3, {}, remote);
  ASSERT_EQ(remote.size(), 3u);
  const runtime::Decision reference = local.decide("stream", {});
  for (const runtime::Decision& decision : remote) {
    expectWireIdentical(decision, reference);
  }
}

TEST(Service, RawZeroSlotBatchClaimingRowsIsAnsweredBadFrame) {
  TestServer fixture;
  fixture.server->start();
  Socket raw = connectUnix(fixture.server->options().socketPath);
  std::string out;
  encodeHello(out, HelloFrame{});
  // Hand-build the hostile frame the encoder refuses to produce: 0 slots,
  // a 4-billion rowCount, and no value bytes to bound it.
  FrameHeader hostile;
  hostile.length = sizeof(DecideBatchFrame) + sizeof(TraceContextBlock);
  hostile.type = static_cast<std::uint16_t>(FrameType::DecideBatch);
  DecideBatchFrame batch;
  batch.slotCount = 0;
  batch.rowCount = 0xFFFFFFFFu;
  const TraceContextBlock trace;
  out.append(reinterpret_cast<const char*>(&hostile), sizeof(hostile));
  out.append(reinterpret_cast<const char*>(&batch), sizeof(batch));
  out.append(reinterpret_cast<const char*>(&trace), sizeof(trace));
  sendAll(raw, out);

  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  char buffer[4096];
  const auto readFrame = [&] {
    for (;;) {
      if (decoder.next(header, payload)) return;
      const std::size_t got = recvSome(raw, buffer, sizeof(buffer));
      ASSERT_GT(got, 0u) << "server closed unexpectedly";
      decoder.append(buffer, got);
    }
  };
  readFrame();
  ASSERT_EQ(header.type, static_cast<std::uint16_t>(FrameType::HelloAck));
  readFrame();
  EXPECT_EQ(header.type, static_cast<std::uint16_t>(FrameType::Error));
  EXPECT_EQ(parseError(payload, true).code, WireCode::BadFrame);
}

TEST(Service, BatchReplyLargerThanTheNegotiatedLimitStillParses) {
  // DecisionBatch replies amplify ~8 request bytes per row into 40+, so a
  // legal request can produce a reply past HelloAck::maxFrameBytes. The
  // limit binds the request direction only; the client must parse this.
  ServiceOptions options;
  options.maxFrameBytes = 16 * 1024;
  TestServer fixture(options);
  fixture.server->start();
  runtime::TargetRuntime local(makeDatabase(), runtime::RuntimeOptions{});
  for (TargetRegion& region : testRegions()) {
    local.registerRegion(std::move(region));
  }

  const std::uint32_t rows = 1000;  // ~8 KB request, ~40 KB reply
  std::vector<std::int64_t> sizes(rows);
  for (std::uint32_t i = 0; i < rows; ++i) sizes[i] = 16 + (i % 512);
  const std::vector<std::string_view> slots{"n"};

  Client client = Client::connect(fixture.server->options().socketPath);
  std::vector<runtime::Decision> remote;
  client.decideBatch("stream", slots, rows, sizes, remote);
  ASSERT_EQ(remote.size(), rows);

  std::vector<symbolic::Bindings> bindings(rows);
  std::vector<runtime::DecideRequest> requests(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    bindings[i]["n"] = sizes[i];
    requests[i] = {"stream", &bindings[i]};
  }
  std::vector<runtime::Decision> reference(rows);
  local.decideBatch(requests, reference);
  for (std::uint32_t i = 0; i < rows; ++i) {
    expectWireIdentical(remote[i], reference[i]);
  }

  // The flip side: a request frame the server would refuse is rejected
  // client-side with FrameTooLarge before any bytes hit the wire, and the
  // connection stays usable.
  const std::uint32_t tooMany = 3000;  // ~24 KB of values > 16 KB limit
  std::vector<std::int64_t> big(tooMany, 64);
  try {
    client.decideBatch("stream", slots, tooMany, big, remote);
    FAIL() << "oversized request frame was sent";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.wireCode(), WireCode::FrameTooLarge);
  }
  client.ping();
  expectWireIdentical(client.decide("stream", {{"n", 64}}),
                      local.decide("stream", {{"n", 64}}));
}

TEST(Service, StalledMetricsScraperDoesNotStarveTheNextScrape) {
  ServiceOptions options;
  options.metricsPort = 0;
  options.metricsRecvTimeoutMillis = 100;
  TestServer fixture(options);
  fixture.server->start();

  // A scraper that connects and sends nothing ties up the serial metrics
  // thread only until the recv timeout drops it...
  Socket stalled = connectTcp(fixture.server->metricsPort());

  // ...so a well-behaved scrape right behind it must still be answered.
  Socket scrape = connectTcp(fixture.server->metricsPort());
  sendAll(scrape, "GET /metrics HTTP/1.0\r\n\r\n");
  std::string response;
  char buffer[8192];
  for (;;) {
    const std::size_t got = recvSome(scrape, buffer, sizeof(buffer));
    if (got == 0) break;
    response.append(buffer, got);
  }
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("osel_service_connections"), std::string::npos);
}

TEST(Service, StopUnblocksAStalledMetricsScraper) {
  // With a long recv timeout, stop() must still return promptly: accepted
  // metrics connections are registered in the active-fd set it sweeps
  // with shutdown(2). Before that registration this join hung forever.
  ServiceOptions options;
  options.metricsPort = 0;
  options.metricsRecvTimeoutMillis = 60'000;
  TestServer fixture(options);
  fixture.server->start();

  Socket stalled = connectTcp(fixture.server->metricsPort());
  // Give the metrics thread time to accept and park in recv().
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  fixture.server->stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(seconds, 10.0) << "stop() waited on a stalled scraper";
}

}  // namespace
}  // namespace osel::service
