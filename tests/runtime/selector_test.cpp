#include "runtime/selector.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "oracle/oracle.h"
#include "support/check.h"
#include "support/faultinject.h"

namespace osel::runtime {
namespace {

using namespace osel::ir;

TargetRegion gemmKernel() {
  return RegionBuilder("gemm")
      .param("n")
      .array("A", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("B", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("C", ScalarType::F32, {sym("n"), sym("n")}, Transfer::ToFrom)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::assign("acc", num(0.0)))
      .statement(Stmt::seqLoop(
          "k", cst(0), sym("n"),
          {Stmt::assign("acc", local("acc") + read("A", {sym("i"), sym("k")}) *
                                                  read("B", {sym("k"), sym("j")}))}))
      .statement(Stmt::store("C", {sym("i"), sym("j")}, local("acc")))
      .build();
}

/// The paper's §IV.C example: store stride [max], resolved only at runtime.
TargetRegion paperExample() {
  return RegionBuilder("paper_example")
      .param("max")
      .array("A", ScalarType::F32, {sym("max") * sym("max")}, Transfer::ToFrom)
      .parallelFor("a", sym("max"))
      .statement(Stmt::store("A", {sym("max") * sym("a")},
                             read("A", {sym("max") * sym("a")}) + num(1.0)))
      .build();
}

pad::RegionAttributes attributesFor(const TargetRegion& region) {
  const std::array<mca::MachineModel, 2> models{mca::MachineModel::power9(),
                                                mca::MachineModel::power8()};
  return compiler::analyzeRegion(region, models);
}

TEST(OffloadSelector, CpuWorkloadPullsMcaCyclesForConfiguredHost) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  SelectorConfig config;
  config.mcaModelName = "POWER9";
  const OffloadSelector selector(config);
  const cpumodel::CpuWorkload workload =
      oracle::cpuWorkload(selector, attr, {{"n", 1100}});
  EXPECT_DOUBLE_EQ(workload.machineCyclesPerIter,
                   attr.machineCyclesPerIter.at("POWER9"));
  EXPECT_EQ(workload.parallelTripCount, 1100 * 1100);
}

TEST(OffloadSelector, MissingMcaModelThrows) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  SelectorConfig config;
  config.mcaModelName = "XEON";  // never analyzed
  const OffloadSelector selector(config);
  EXPECT_THROW((void)oracle::cpuWorkload(selector, attr, {{"n", 100}}),
               support::PreconditionError);
}

TEST(OffloadSelector, GpuWorkloadSplitsCoalescedUncoalesced) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const gpumodel::GpuWorkload workload =
      oracle::gpuWorkload(attr, {{"n", 1100}});
  // A[i][k] (uniform, 128x) + B[k][j] (coalesced, 128x) + C store (1x) are
  // all "coalesced" in the binary split.
  EXPECT_DOUBLE_EQ(workload.coalMemInstsPerThread, 257.0);
  EXPECT_DOUBLE_EQ(workload.uncoalMemInstsPerThread, 0.0);
  EXPECT_EQ(workload.bytesToDevice, 3LL * 1100 * 1100 * 4);
}

TEST(OffloadSelector, RuntimeValueFlipsCoalescingSplit) {
  // The hybrid payoff: the same PAD entry classifies differently under
  // different runtime bindings.
  const pad::RegionAttributes attr = attributesFor(paperExample());
  const gpumodel::GpuWorkload wide = oracle::gpuWorkload(attr, {{"max", 4096}});
  EXPECT_GT(wide.uncoalMemInstsPerThread, 0.0);
  EXPECT_DOUBLE_EQ(wide.coalMemInstsPerThread, 0.0);
  const gpumodel::GpuWorkload degenerate =
      oracle::gpuWorkload(attr, {{"max", 1}});
  EXPECT_DOUBLE_EQ(degenerate.uncoalMemInstsPerThread, 0.0);
  EXPECT_GT(degenerate.coalMemInstsPerThread, 0.0);
}

TEST(OffloadSelector, FalseSharingFlagFromStoreStride) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const OffloadSelector selector(SelectorConfig{});
  // C store stride 1 x 4B << 128B line -> adjacent iterations share lines.
  EXPECT_TRUE(
      oracle::cpuWorkload(selector, attr, {{"n", 100}}).falseSharingRisk);
  // The paper example at max=4096: stride 16 KiB -> no false sharing.
  const pad::RegionAttributes wide = attributesFor(paperExample());
  EXPECT_FALSE(
      oracle::cpuWorkload(selector, wide, {{"max", 4096}}).falseSharingRisk);
}

TEST(OffloadSelector, LargeGemmPrefersGpuSmallPrefersCpu) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const OffloadSelector bigHost(SelectorConfig{});
  const Decision large = bigHost.decide(bigHost.compile(attr), {{"n", 4096}});
  EXPECT_EQ(large.device, Device::Gpu);
  // At 160 threads even tiny kernels lose to the fork cost, so the
  // CPU-stays case needs a modest host configuration (the paper's 4-thread
  // scenario, Figs. 6-7).
  SelectorConfig smallHost;
  smallHost.cpuThreads = 4;
  const OffloadSelector smallSelector(smallHost);
  const Decision tiny =
      smallSelector.decide(smallSelector.compile(attr), {{"n", 16}});
  EXPECT_EQ(tiny.device, Device::Cpu);
}

TEST(OffloadSelector, DecisionOverheadIsMicroseconds) {
  // §IV.D: evaluating two closed-form models must be negligible.
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const OffloadSelector selector(SelectorConfig{});
  const Decision decision =
      selector.decide(selector.compile(attr), {{"n", 1100}});
  EXPECT_LT(decision.overheadSeconds, 1e-3);
}

TEST(OffloadSelector, PredictedSpeedupConsistent) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const OffloadSelector selector(SelectorConfig{});
  const Decision decision =
      selector.decide(selector.compile(attr), {{"n", 1100}});
  EXPECT_NEAR(decision.predictedSpeedup(),
              decision.cpu.seconds / decision.gpu.totalSeconds, 1e-12);
  if (decision.predictedSpeedup() > 1.0) {
    EXPECT_EQ(decision.device, Device::Gpu);
  } else {
    EXPECT_EQ(decision.device, Device::Cpu);
  }
}

TEST(OffloadSelector, ValidDecisionsCarryNoDiagnostic) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const OffloadSelector selector(SelectorConfig{});
  const Decision decision =
      selector.decide(selector.compile(attr), {{"n", 1100}});
  EXPECT_TRUE(decision.valid);
  EXPECT_TRUE(decision.diagnostic.empty());
}

TEST(OffloadSelector, ModelFaultDegradesToSafeDefault) {
  const pad::RegionAttributes attr = attributesFor(gemmKernel());
  const support::ScopedFault fault(support::faultpoints::kSelectorDecide,
                                   {.kind = support::FaultKind::DeviceLost});
  SelectorConfig config;
  config.safeDefaultDevice = Device::Gpu;  // non-default, to prove it is used
  const OffloadSelector selector(config);
  const Decision decision =
      selector.decide(selector.compile(attr), {{"n", 1100}});
  EXPECT_FALSE(decision.valid);
  EXPECT_EQ(decision.device, Device::Gpu);
  EXPECT_FALSE(decision.diagnostic.empty());
  EXPECT_TRUE(std::isnan(decision.predictedSpeedup()));
}

TEST(DecisionSpeedup, NonFinitePredictionsYieldNaN) {
  Decision decision;
  decision.cpu.seconds = 1.0;
  decision.gpu.totalSeconds = 0.0;
  EXPECT_TRUE(std::isnan(decision.predictedSpeedup()));
  decision.gpu.totalSeconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(decision.predictedSpeedup()));
  decision.gpu.totalSeconds = 2.0;
  decision.cpu.seconds = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(decision.predictedSpeedup()));
  decision.cpu.seconds = 4.0;
  EXPECT_DOUBLE_EQ(decision.predictedSpeedup(), 2.0);
}

TEST(OffloadSelector, DeviceNames) {
  EXPECT_EQ(toString(Device::Cpu), "CPU");
  EXPECT_EQ(toString(Device::Gpu), "GPU");
}

}  // namespace
}  // namespace osel::runtime
