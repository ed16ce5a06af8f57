// Equivalence suite for compiled decision plans: the compiled fast path
// must produce Decisions bit-identical to the interpreted symbolic walk
// (the test oracle, tests/oracle) — same device, same diagnostics, same
// prediction fields down to the last mantissa bit — for every Polybench
// region over a grid of sizes, under randomized bindings (including missing
// symbols), and on degenerate plans.
// Also pins the zero-heap-allocation guarantee of the compiled decide().
#include "runtime/compiled_plan.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "compiler/compiler.h"
#include "obs/explain.h"
#include "oracle/oracle.h"
#include "polybench/polybench.h"
#include "runtime/selector.h"
#include "support/rng.h"

// --- Global allocation counter ----------------------------------------------
// Replaces the global non-aligned new/delete for this test binary so the
// zero-allocation test below can assert that the compiled decide() never
// touches the heap. Counting only; allocation behaviour is unchanged.

namespace {
std::atomic<std::uint64_t> gAllocations{0};

// noinline keeps GCC from tracking malloc/free provenance through the
// replaced operators and raising a spurious -Wmismatched-new-delete.
[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }

namespace osel::runtime {
namespace {

void expectSameBits(double compiled, double interpreted, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(compiled),
            std::bit_cast<std::uint64_t>(interpreted))
      << field << ": compiled=" << compiled << " interpreted=" << interpreted;
}

/// Bit-identical equality of everything except overheadSeconds (wall time).
void expectIdenticalDecisions(const Decision& compiled,
                              const Decision& interpreted) {
  EXPECT_EQ(compiled.device, interpreted.device);
  EXPECT_EQ(compiled.valid, interpreted.valid);
  EXPECT_EQ(compiled.diagnostic, interpreted.diagnostic);

  expectSameBits(compiled.cpu.forkJoinCycles, interpreted.cpu.forkJoinCycles,
                 "cpu.forkJoinCycles");
  expectSameBits(compiled.cpu.scheduleCycles, interpreted.cpu.scheduleCycles,
                 "cpu.scheduleCycles");
  expectSameBits(compiled.cpu.workCycles, interpreted.cpu.workCycles,
                 "cpu.workCycles");
  expectSameBits(compiled.cpu.loopOverheadCycles,
                 interpreted.cpu.loopOverheadCycles, "cpu.loopOverheadCycles");
  expectSameBits(compiled.cpu.tlbCycles, interpreted.cpu.tlbCycles,
                 "cpu.tlbCycles");
  expectSameBits(compiled.cpu.falseSharingCycles,
                 interpreted.cpu.falseSharingCycles, "cpu.falseSharingCycles");
  expectSameBits(compiled.cpu.totalCycles, interpreted.cpu.totalCycles,
                 "cpu.totalCycles");
  expectSameBits(compiled.cpu.seconds, interpreted.cpu.seconds, "cpu.seconds");

  EXPECT_EQ(compiled.gpu.threadsPerBlock, interpreted.gpu.threadsPerBlock);
  EXPECT_EQ(compiled.gpu.blocks, interpreted.gpu.blocks);
  expectSameBits(compiled.gpu.ompRep, interpreted.gpu.ompRep, "gpu.ompRep");
  expectSameBits(compiled.gpu.rep, interpreted.gpu.rep, "gpu.rep");
  EXPECT_EQ(compiled.gpu.activeSms, interpreted.gpu.activeSms);
  expectSameBits(compiled.gpu.activeWarpsPerSm, interpreted.gpu.activeWarpsPerSm,
                 "gpu.activeWarpsPerSm");
  expectSameBits(compiled.gpu.memCycles, interpreted.gpu.memCycles,
                 "gpu.memCycles");
  expectSameBits(compiled.gpu.compCycles, interpreted.gpu.compCycles,
                 "gpu.compCycles");
  expectSameBits(compiled.gpu.mwpWithoutBw, interpreted.gpu.mwpWithoutBw,
                 "gpu.mwpWithoutBw");
  expectSameBits(compiled.gpu.mwpPeakBw, interpreted.gpu.mwpPeakBw,
                 "gpu.mwpPeakBw");
  expectSameBits(compiled.gpu.mwp, interpreted.gpu.mwp, "gpu.mwp");
  expectSameBits(compiled.gpu.cwp, interpreted.gpu.cwp, "gpu.cwp");
  EXPECT_EQ(compiled.gpu.execCase, interpreted.gpu.execCase);
  expectSameBits(compiled.gpu.kernelCycles, interpreted.gpu.kernelCycles,
                 "gpu.kernelCycles");
  expectSameBits(compiled.gpu.kernelSeconds, interpreted.gpu.kernelSeconds,
                 "gpu.kernelSeconds");
  expectSameBits(compiled.gpu.transferSeconds, interpreted.gpu.transferSeconds,
                 "gpu.transferSeconds");
  expectSameBits(compiled.gpu.launchSeconds, interpreted.gpu.launchSeconds,
                 "gpu.launchSeconds");
  expectSameBits(compiled.gpu.totalSeconds, interpreted.gpu.totalSeconds,
                 "gpu.totalSeconds");
}

/// Bit-identical equality of two DecisionExplain records' model terms and
/// outcome fields. `path`, `seq`, `atNs`, and `overheadSeconds` are outside
/// the contract: the first is *supposed* to differ between the two decide
/// paths and the rest are wall-clock/ring bookkeeping.
void expectIdenticalExplains(const obs::DecisionExplain& compiled,
                             const obs::DecisionExplain& interpreted) {
  EXPECT_EQ(compiled.regionView(), interpreted.regionView());
  EXPECT_EQ(compiled.valid, interpreted.valid);
  EXPECT_EQ(compiled.chosenGpu, interpreted.chosenGpu);
  expectSameBits(compiled.predictedSpeedup, interpreted.predictedSpeedup,
                 "explain.predictedSpeedup");

  expectSameBits(compiled.cpu.machineCyclesPerIter,
                 interpreted.cpu.machineCyclesPerIter,
                 "explain.cpu.machineCyclesPerIter");
  expectSameBits(compiled.cpu.tripCount, interpreted.cpu.tripCount,
                 "explain.cpu.tripCount");
  expectSameBits(compiled.cpu.forkJoinCycles, interpreted.cpu.forkJoinCycles,
                 "explain.cpu.forkJoinCycles");
  expectSameBits(compiled.cpu.scheduleCycles, interpreted.cpu.scheduleCycles,
                 "explain.cpu.scheduleCycles");
  expectSameBits(compiled.cpu.workCycles, interpreted.cpu.workCycles,
                 "explain.cpu.workCycles");
  expectSameBits(compiled.cpu.loopOverheadCycles,
                 interpreted.cpu.loopOverheadCycles,
                 "explain.cpu.loopOverheadCycles");
  expectSameBits(compiled.cpu.tlbCycles, interpreted.cpu.tlbCycles,
                 "explain.cpu.tlbCycles");
  expectSameBits(compiled.cpu.falseSharingCycles,
                 interpreted.cpu.falseSharingCycles,
                 "explain.cpu.falseSharingCycles");
  expectSameBits(compiled.cpu.totalCycles, interpreted.cpu.totalCycles,
                 "explain.cpu.totalCycles");
  expectSameBits(compiled.cpu.seconds, interpreted.cpu.seconds,
                 "explain.cpu.seconds");

  expectSameBits(compiled.gpu.ompRep, interpreted.gpu.ompRep,
                 "explain.gpu.ompRep");
  expectSameBits(compiled.gpu.mwp, interpreted.gpu.mwp, "explain.gpu.mwp");
  expectSameBits(compiled.gpu.cwp, interpreted.gpu.cwp, "explain.gpu.cwp");
  expectSameBits(compiled.gpu.memCycles, interpreted.gpu.memCycles,
                 "explain.gpu.memCycles");
  expectSameBits(compiled.gpu.compCycles, interpreted.gpu.compCycles,
                 "explain.gpu.compCycles");
  expectSameBits(compiled.gpu.activeWarpsPerSm,
                 interpreted.gpu.activeWarpsPerSm,
                 "explain.gpu.activeWarpsPerSm");
  expectSameBits(compiled.gpu.coalMemInsts, interpreted.gpu.coalMemInsts,
                 "explain.gpu.coalMemInsts");
  expectSameBits(compiled.gpu.uncoalMemInsts, interpreted.gpu.uncoalMemInsts,
                 "explain.gpu.uncoalMemInsts");
  expectSameBits(compiled.gpu.coalescedFraction,
                 interpreted.gpu.coalescedFraction,
                 "explain.gpu.coalescedFraction");
  expectSameBits(compiled.gpu.bytesToDevice, interpreted.gpu.bytesToDevice,
                 "explain.gpu.bytesToDevice");
  expectSameBits(compiled.gpu.bytesFromDevice, interpreted.gpu.bytesFromDevice,
                 "explain.gpu.bytesFromDevice");
  expectSameBits(compiled.gpu.kernelSeconds, interpreted.gpu.kernelSeconds,
                 "explain.gpu.kernelSeconds");
  expectSameBits(compiled.gpu.transferSeconds, interpreted.gpu.transferSeconds,
                 "explain.gpu.transferSeconds");
  expectSameBits(compiled.gpu.launchSeconds, interpreted.gpu.launchSeconds,
                 "explain.gpu.launchSeconds");
  expectSameBits(compiled.gpu.totalSeconds, interpreted.gpu.totalSeconds,
                 "explain.gpu.totalSeconds");
  EXPECT_EQ(compiled.gpu.execCase, interpreted.gpu.execCase);
}

const std::array<mca::MachineModel, 1>& hostModels() {
  static const std::array<mca::MachineModel, 1> models{
      mca::MachineModel::power9()};
  return models;
}

TEST(CompiledPlanEquivalence, EveryPolybenchRegionOverSizeGrid) {
  const OffloadSelector selector{SelectorConfig{}};
  const std::array<std::int64_t, 6> sizes{1, 2, 16, 100, 1100, 9600};
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      const pad::RegionAttributes attr =
          compiler::analyzeRegion(kernel, hostModels());
      const CompiledRegionPlan plan = selector.compile(attr);
      EXPECT_TRUE(plan.fastPathUsable()) << kernel.name;
      for (const std::int64_t n : sizes) {
        SCOPED_TRACE(kernel.name + " n=" + std::to_string(n));
        // Built directly (Benchmark::bindings refuses n < 3): tiny sizes
        // exercise degenerate predictions, which must also match exactly.
        const symbolic::Bindings bindings{{"n", n}};
        expectIdenticalDecisions(selector.decide(RegionHandle(plan), bindings),
                                 oracle::decide(selector, attr, bindings));
      }
    }
  }
}

TEST(CompiledPlanEquivalence, ExplainRecordsMatchOverRegionAndSizeGrid) {
  // The forensics contract: the compiled decide and the oracle must fill
  // the DecisionExplain sink with bit-identical model terms for every
  // Polybench region over the size grid. Seq/atNs/overheadSeconds differ by
  // design; everything else must not.
  const OffloadSelector selector{SelectorConfig{}};
  const std::array<std::int64_t, 6> sizes{1, 2, 16, 100, 1100, 9600};
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      const pad::RegionAttributes attr =
          compiler::analyzeRegion(kernel, hostModels());
      const CompiledRegionPlan plan = selector.compile(attr);
      for (const std::int64_t n : sizes) {
        SCOPED_TRACE(kernel.name + " n=" + std::to_string(n));
        const symbolic::Bindings bindings{{"n", n}};
        obs::DecisionExplain compiled;
        obs::DecisionExplain interpreted;
        (void)selector.decide(RegionHandle(plan), bindings, &compiled);
        (void)oracle::decide(selector, attr, bindings, &interpreted);
        // Tiny sizes make some models throw: then BOTH must report
        // Degenerate. Otherwise both ran the models through the shared
        // compiled tail.
        EXPECT_EQ(compiled.path == obs::DecisionPath::Degenerate,
                  interpreted.path == obs::DecisionPath::Degenerate);
        if (compiled.path != obs::DecisionPath::Degenerate) {
          EXPECT_EQ(compiled.path, obs::DecisionPath::Compiled);
          EXPECT_EQ(interpreted.path, obs::DecisionPath::Compiled);
        }
        expectIdenticalExplains(compiled, interpreted);
      }
    }
  }
}

TEST(CompiledPlanEquivalence, ExplainRecordsMatchOnDegenerateBindings) {
  // Missing required symbol: the plan raises the walk's diagnostic itself;
  // the path and term fields must still agree bit for bit with the
  // oracle's decide.
  const OffloadSelector selector{SelectorConfig{}};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const pad::RegionAttributes attr =
      compiler::analyzeRegion(gemm.kernels()[0], hostModels());
  const CompiledRegionPlan plan = selector.compile(attr);
  obs::DecisionExplain compiled;
  obs::DecisionExplain interpreted;
  const symbolic::Bindings empty;
  (void)selector.decide(RegionHandle(plan), empty, &compiled);
  (void)oracle::decide(selector, attr, empty, &interpreted);
  EXPECT_EQ(compiled.path, interpreted.path);
  expectIdenticalExplains(compiled, interpreted);
}

TEST(CompiledPlanEquivalence, RandomizedBindingsFuzz) {
  const OffloadSelector selector{SelectorConfig{}};
  support::SplitMix64 rng(0xC0DEC0DEULL);
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      const pad::RegionAttributes attr =
          compiler::analyzeRegion(kernel, hostModels());
      const CompiledRegionPlan plan = selector.compile(attr);
      for (int round = 0; round < 8; ++round) {
        const auto n = static_cast<std::int64_t>(1 + rng.nextBelow(20000));
        symbolic::Bindings bindings{{"n", n}};
        // Every fourth round, drop a binding: both paths must degrade to
        // the same safe default with the same diagnostic text.
        if (round % 4 == 3 && !bindings.empty()) {
          bindings.erase(bindings.begin());
        }
        SCOPED_TRACE(kernel.name + " round=" + std::to_string(round) +
                     " n=" + std::to_string(n));
        expectIdenticalDecisions(selector.decide(RegionHandle(plan), bindings),
                                 oracle::decide(selector, attr, bindings));
      }
    }
  }
}

TEST(CompiledPlanEquivalence, UnusablePlanDegradesLikeTheOracle) {
  // An MCA host entry the PAD does not carry makes the fast path unusable;
  // decide(plan) must reproduce the oracle's degenerate decision byte for
  // byte, diagnostic included.
  SelectorConfig config;
  config.mcaModelName = "POWER11";
  const OffloadSelector selector{config};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const pad::RegionAttributes attr =
      compiler::analyzeRegion(gemm.kernels()[0], hostModels());
  const CompiledRegionPlan plan = selector.compile(attr);
  EXPECT_FALSE(plan.fastPathUsable());
  const symbolic::Bindings bindings = gemm.bindings(128);
  const Decision compiled = selector.decide(RegionHandle(plan), bindings);
  const Decision interpreted = oracle::decide(selector, attr, bindings);
  EXPECT_FALSE(compiled.valid);
  expectIdenticalDecisions(compiled, interpreted);
}

TEST(CompiledPlanEquivalence, BoundZeroAbsorbsAnUnboundSymbolLikeTheOracle) {
  // n = 0 zeroes every term of n*n*m, so the walk evaluates the trip count
  // with m unbound; the plan must then complete the row instead of raising
  // an unbound-symbol diagnostic.
  const OffloadSelector selector{SelectorConfig{}};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  pad::RegionAttributes attr =
      compiler::analyzeRegion(gemm.kernels()[0], hostModels());
  attr.flatTripCount = attr.flatTripCount * symbolic::Expr::symbol("m");
  const CompiledRegionPlan plan = selector.compile(attr);
  ASSERT_TRUE(plan.fastPathUsable());
  const symbolic::Bindings bindings{{"n", 0}};
  const Decision compiled = selector.decide(RegionHandle(plan), bindings);
  EXPECT_EQ(compiled.diagnostic.find("unbound"), std::string::npos)
      << compiled.diagnostic;
  expectIdenticalDecisions(compiled, oracle::decide(selector, attr, bindings));
}

TEST(CompiledPlan, LoweringPreResolvesConstantStridesAndSlots) {
  const OffloadSelector selector{SelectorConfig{}};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const pad::RegionAttributes attr =
      compiler::analyzeRegion(gemm.kernels()[0], hostModels());
  const CompiledRegionPlan plan = selector.compile(attr);
  ASSERT_TRUE(plan.fastPathUsable());
  // GEMM's strides are compile-time constants: all pre-classified.
  EXPECT_EQ(plan.preResolvedStrideCount(), attr.strides.size());
  // One runtime symbol ("n") across trip count and transfer expressions.
  EXPECT_EQ(plan.slotCount(), 1u);
  EXPECT_LE(plan.slotCount(), CompiledRegionPlan::kMaxSlots);
}

TEST(CompiledPlan, BindSlotsReportsMissingRequiredSymbols) {
  const OffloadSelector selector{SelectorConfig{}};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const CompiledRegionPlan plan = selector.compile(
      compiler::analyzeRegion(gemm.kernels()[0], hostModels()));
  std::array<std::int64_t, CompiledRegionPlan::kMaxSlots> values{};
  std::uint64_t boundMask = 0;
  EXPECT_FALSE(plan.bindSlotsColumn(symbolic::Bindings{}, values.data(), 1, 0,
                                    boundMask));
  EXPECT_EQ(boundMask, 0u);
  EXPECT_TRUE(plan.bindSlotsColumn(gemm.bindings(256), values.data(), 1, 0,
                                   boundMask));
  EXPECT_NE(boundMask, 0u);
  EXPECT_EQ(values[0], 256);
}

TEST(CompiledPlanPerf, CompiledDecideIsAllocationFree) {
  const OffloadSelector selector{SelectorConfig{}};
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const CompiledRegionPlan plan = selector.compile(
      compiler::analyzeRegion(gemm.kernels()[0], hostModels()));
  ASSERT_TRUE(plan.fastPathUsable());
  const symbolic::Bindings bindings = gemm.bindings(9600);
  double sink = 0.0;
  sink += selector.decide(RegionHandle(plan), bindings).cpu.seconds;  // warm-up
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    sink += selector.decide(RegionHandle(plan), bindings).cpu.seconds;
  }
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace osel::runtime
