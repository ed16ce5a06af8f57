// Allocation pins of the client hot path: once warmed up, a connected
// Client decides, scalar or in 64-row batches, without touching the heap.
// Its own binary, test_client_alloc: thread_counting_new.cpp replaces the
// global operator new, and one replacement per link is the limit.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "service/client.h"
#include "service/server.h"
#include "thread_counting_new.h"

namespace osel::service {
namespace {

using namespace osel::ir;
using alloc_test::threadAllocationCount;

TargetRegion streamKernel() {
  return RegionBuilder("stream")
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

struct LoopbackServer {
  LoopbackServer() {
    ServiceOptions options;
    options.socketPath = "/tmp/osel_client_alloc_test_" +
                         std::to_string(::getpid()) + ".sock";
    options.workerThreads = 1;
    const std::array<mca::MachineModel, 1> hosts{mca::MachineModel::power9()};
    server = std::make_unique<Server>(
        compiler::compileAll(std::vector<TargetRegion>{streamKernel()}, hosts),
        runtime::RuntimeOptions{}, options);
    server->registerRegion(streamKernel());
    server->start();
  }
  std::unique_ptr<Server> server;
};

TEST(ClientAlloc, WarmedUpDecideAndDecideBatchDoNotAllocate) {
  LoopbackServer loopback;
  Client client = Client::connect(loopback.server->options().socketPath);

  const symbolic::Bindings bindings{{"n", 512}};
  constexpr std::uint32_t kRows = 64;
  const std::array<std::string_view, 1> slots{"n"};
  std::vector<std::int64_t> values(kRows);
  for (std::uint32_t row = 0; row < kRows; ++row) values[row] = 64 + 4 * row;
  std::vector<runtime::Decision> out;
  const TraceContextBlock trace{};

  // Warm-up: grows the client's send, receive and parse scratch to their
  // steady-state sizes (and the server's worker arena and reply buffer).
  for (int round = 0; round < 8; ++round) {
    (void)client.decide("stream", bindings, &trace);
    client.decideBatch("stream", slots, kRows, values, out, &trace);
  }

  const std::uint64_t before = threadAllocationCount();
  for (int round = 0; round < 32; ++round) {
    const runtime::Decision decision = client.decide("stream", bindings);
    EXPECT_TRUE(decision.valid);
    client.decideBatch("stream", slots, kRows, values, out);
  }
  const std::uint64_t after = threadAllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "warmed-up client allocated " << (after - before) << " times";
  ASSERT_EQ(out.size(), kRows);
  for (const runtime::Decision& decision : out) EXPECT_TRUE(decision.valid);
}

}  // namespace
}  // namespace osel::service
