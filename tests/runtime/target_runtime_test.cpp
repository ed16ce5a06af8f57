#include "runtime/target_runtime.h"

#include <gtest/gtest.h>

#include <array>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "support/check.h"

namespace osel::runtime {
namespace {

using namespace osel::ir;

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

TargetRuntime makeRuntime() {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const std::array<TargetRegion, 1> regions{streamKernel()};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  TargetRuntime runtime(std::move(db), options);
  runtime.registerRegion(streamKernel());
  return runtime;
}

TEST(TargetRuntime, RegistrationAndLookup) {
  TargetRuntime runtime = makeRuntime();
  EXPECT_TRUE(runtime.hasRegion("stream"));
  EXPECT_FALSE(runtime.hasRegion("ghost"));
}

TEST(TargetRuntime, LaunchUnregisteredRegionThrows) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  EXPECT_THROW((void)runtime.launch("ghost", bindings, store,
                                    Policy::AlwaysGpu),
               support::PreconditionError);
}

TEST(TargetRuntime, FixedPoliciesRunTheNamedDevice) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 128}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const LaunchRecord cpu =
      runtime.launch("stream", bindings, store, Policy::AlwaysCpu);
  EXPECT_EQ(cpu.chosen, Device::Cpu);
  EXPECT_TRUE(cpu.cpuMeasured);
  EXPECT_FALSE(cpu.gpuMeasured);
  EXPECT_GT(cpu.actualSeconds, 0.0);
  const LaunchRecord gpu =
      runtime.launch("stream", bindings, store, Policy::AlwaysGpu);
  EXPECT_EQ(gpu.chosen, Device::Gpu);
  EXPECT_TRUE(gpu.gpuMeasured);
  EXPECT_FALSE(gpu.cpuMeasured);
}

TEST(TargetRuntime, ModelGuidedFollowsSelector) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 256}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_EQ(record.chosen, record.decision.device);
  EXPECT_GT(record.actualSeconds, 0.0);
}

TEST(TargetRuntime, OracleMeasuresBothAndPicksWinner) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 256}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::Oracle);
  EXPECT_TRUE(record.cpuMeasured);
  EXPECT_TRUE(record.gpuMeasured);
  EXPECT_LE(record.actualSeconds,
            std::min(record.actualCpuSeconds, record.actualGpuSeconds) + 1e-15);
  if (record.actualGpuSeconds < record.actualCpuSeconds) {
    EXPECT_EQ(record.chosen, Device::Gpu);
  } else {
    EXPECT_EQ(record.chosen, Device::Cpu);
  }
}

TEST(TargetRuntime, OracleNeverWorseThanFixedPolicies) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 200}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const double oracle =
      runtime.launch("stream", bindings, store, Policy::Oracle).actualSeconds;
  const double cpu =
      runtime.launch("stream", bindings, store, Policy::AlwaysCpu).actualSeconds;
  const double gpu =
      runtime.launch("stream", bindings, store, Policy::AlwaysGpu).actualSeconds;
  EXPECT_LE(oracle, cpu + 1e-15);
  EXPECT_LE(oracle, gpu + 1e-15);
}

TEST(TargetRuntime, LaunchLogAccumulates) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::AlwaysCpu);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  ASSERT_EQ(runtime.log().size(), 2u);
  EXPECT_EQ(runtime.log()[0].policy, Policy::AlwaysCpu);
  EXPECT_EQ(runtime.log()[1].policy, Policy::ModelGuided);
  runtime.clearLog();
  EXPECT_TRUE(runtime.log().empty());
}

TEST(TargetRuntime, MeasureMatchesDeviceSimulators) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 128}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const double cpu = runtime.measure("stream", bindings, store, Device::Cpu);
  const double gpu = runtime.measure("stream", bindings, store, Device::Gpu);
  EXPECT_GT(cpu, 0.0);
  EXPECT_GT(gpu, 0.0);
}

TEST(TargetRuntime, LogCsvExport) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  (void)runtime.launch("stream", bindings, store, Policy::Oracle);
  const std::string csv = renderLogCsv(runtime.log());
  // Header + 2 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  // The 16-column layout, byte for byte.
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "region,policy,chosen,predicted_cpu_s,predicted_gpu_s,actual_s,"
            "actual_cpu_s,actual_gpu_s,decision_overhead_s,decision_valid,"
            "attempts,fallback,backoff_s,quarantined,decision_path,"
            "decision_cache");
  EXPECT_NE(csv.find("stream,model-guided,"), std::string::npos);
  EXPECT_NE(csv.find("stream,oracle,"), std::string::npos);
  // Oracle rows carry both measured times (no empty cells at the end).
  const std::size_t oracleRow = csv.find("stream,oracle,");
  const std::string tail = csv.substr(oracleRow);
  EXPECT_EQ(tail.find(",,"), std::string::npos);
}

TEST(TargetRuntime, LogCsvEmptyLogIsHeaderOnly) {
  const std::string csv = renderLogCsv({});
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
}

TEST(TargetRuntime, LogCsvQuotesHostileRegionNames) {
  // Region names are caller-controlled; RFC-4180 quoting keeps a name with
  // commas/quotes/newlines from shearing its row.
  LaunchRecord record;
  record.regionName = "evil,\"name\"\nk1";
  record.policy = Policy::AlwaysCpu;
  record.chosen = Device::Cpu;
  const std::string csv = renderLogCsv(std::array{record});
  EXPECT_NE(csv.find("\"evil,\"\"name\"\"\nk1\",always-cpu,CPU,"),
            std::string::npos)
      << csv;
  // The embedded newline lives inside quotes: header + one (wrapped) row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  // A benign name stays unquoted.
  record.regionName = "stream";
  EXPECT_NE(renderLogCsv(std::array{record}).find("\nstream,always-cpu,"),
            std::string::npos);
}

TEST(TargetRuntime, PolicyNames) {
  EXPECT_EQ(toString(Policy::AlwaysCpu), "always-cpu");
  EXPECT_EQ(toString(Policy::AlwaysGpu), "always-gpu");
  EXPECT_EQ(toString(Policy::ModelGuided), "model-guided");
  EXPECT_EQ(toString(Policy::Oracle), "oracle");
}

}  // namespace
}  // namespace osel::runtime
