// Selection-policy layer (runtime/policy): the seam contract end to end.
//
//   * kind names parse/print round-trip and unknowns are rejected,
//   * ModelCompare is the paper's rule — every valid decision over the full
//     Polybench grid picks the GPU iff its predicted time is strictly lower,
//     on the compiled path, the interpreted oracle, and decideBatch, and
//     an unset policy decides bit-identically (device, validity,
//     diagnostic, prediction doubles) to an explicit ModelCompare,
//   * a Calibrated refit bumps refits() and the runtime's DecisionCache
//     stops serving pre-refit decisions — single-threaded and under a
//     concurrent refit storm (the tsan preset runs this binary),
//   * DriftDetector::resetRegion re-arms state but keeps history counters,
//   * the closed loop: a mid-run host slowdown (the simulated CPU loses
//     cores) must latch a drift alarm, trigger a Calibrated refit through
//     the launch feedback channel, and surface in the session's status.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/interpreter.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "polybench/polybench.h"
#include "runtime/policy/policy.h"
#include "runtime/target_runtime.h"

namespace osel {
namespace {

using namespace osel::ir;
namespace policy = osel::runtime::policy;

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
          {Stmt::assign("acc",
                        local("acc") + read("A", {sym("i"), sym("k")}) *
                                           read("B", {sym("k"), sym("j")}))}))
      .statement(Stmt::store("C", {sym("i"), sym("j")}, local("acc")))
      .build();
}

/// `cpuSimThreads` sets the *simulated* host's concurrency; the selector
/// always predicts against the full 160-thread host, so a lower value
/// models a degraded environment (throttling, a noisy neighbor stealing
/// cores) the analytical model knows nothing about.
runtime::TargetRuntime makeRuntime(
    const TargetRegion& region,
    std::shared_ptr<policy::SelectionPolicy> selectionPolicy,
    obs::TraceSession* session = nullptr, int cpuSimThreads = 160) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const std::array<TargetRegion, 1> regions{region};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  runtime::RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.selector.policy = std::move(selectionPolicy);
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.cpuSimThreads = cpuSimThreads;
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  options.trace = session;
  runtime::TargetRuntime rt(std::move(db), options);
  rt.registerRegion(region);
  return rt;
}

/// Exact bit equality, so NaN == NaN when the bit patterns match — the
/// contract is "same code ran", not "answers are close".
bool bitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expectBitIdentical(const runtime::Decision& a, const runtime::Decision& b,
                        const std::string& context) {
  EXPECT_EQ(a.device, b.device) << context;
  EXPECT_EQ(a.valid, b.valid) << context;
  EXPECT_EQ(a.diagnostic, b.diagnostic) << context;
  EXPECT_PRED2(bitEqual, a.cpu.seconds, b.cpu.seconds) << context;
  EXPECT_PRED2(bitEqual, a.cpu.totalCycles, b.cpu.totalCycles) << context;
  EXPECT_PRED2(bitEqual, a.gpu.totalSeconds, b.gpu.totalSeconds) << context;
  EXPECT_PRED2(bitEqual, a.gpu.kernelCycles, b.gpu.kernelCycles) << context;
}

TEST(PolicyKinds, NamesRoundTripAndUnknownsRejected) {
  const std::array<policy::PolicyKind, 2> kinds{
      policy::PolicyKind::ModelCompare, policy::PolicyKind::Calibrated};
  for (const policy::PolicyKind kind : kinds) {
    const std::string_view name = policy::toString(kind);
    const auto parsed = policy::parsePolicyKind(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
    // Every accepted name is in the CLI error-message list.
    EXPECT_NE(policy::policyKindNames().find(name), std::string::npos);
    // makePolicy honors the kind.
    policy::PolicyOptions options;
    options.kind = kind;
    const auto made = policy::makePolicy(options);
    ASSERT_NE(made, nullptr);
    EXPECT_EQ(made->kind(), kind);
  }
  EXPECT_EQ(policy::policyKindNames(), "model-compare, calibrated");
  // The deleted policies' names are unknowns like any other.
  EXPECT_FALSE(policy::parsePolicyKind("hysteresis").has_value());
  EXPECT_FALSE(policy::parsePolicyKind("epsilon-greedy").has_value());
  EXPECT_FALSE(policy::parsePolicyKind("oracle").has_value());
  EXPECT_FALSE(policy::parsePolicyKind("ModelCompare").has_value());
  EXPECT_FALSE(policy::parsePolicyKind("").has_value());
}

TEST(PolicyKinds, StatelessDefaults) {
  const auto modelCompare = policy::makePolicy();
  EXPECT_EQ(modelCompare->kind(), policy::PolicyKind::ModelCompare);
  EXPECT_EQ(modelCompare->refits(), 0u);
  EXPECT_TRUE(modelCompare->calibrationReport().empty());
  // Feedback on a stateless policy never refits.
  EXPECT_FALSE(
      modelCompare->observe({"r", runtime::Device::Gpu, 1.0, 100.0, true}));
}

/// The paper's rule (§IV.D): a valid decision runs on the GPU iff its
/// predicted total time is strictly lower than the CPU's. Tallies the
/// devices it saw so the caller can require both sides of the crossover.
void expectPaperRule(const runtime::Decision& decision,
                     const std::string& context,
                     std::array<int, 2>& validByDevice) {
  if (!decision.valid) return;
  const runtime::Device rule =
      decision.gpu.totalSeconds < decision.cpu.seconds ? runtime::Device::Gpu
                                                       : runtime::Device::Cpu;
  EXPECT_EQ(decision.device, rule) << context;
  ++validByDevice[decision.device == runtime::Device::Gpu ? 1 : 0];
}

// The acceptance criterion for the extraction: every valid decision over
// the whole Polybench grid follows the paper's rule — compiled path,
// interpreted oracle, and batch — and an explicit ModelCompare policy
// decides bit-identically to an unset one (the default).
TEST(ModelCompareExtraction, BitIdenticalOverPolybenchGrid) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  std::vector<TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const TargetRegion& kernel : benchmark.kernels())
      regions.push_back(kernel);
  }
  const pad::AttributeDatabase db = compiler::compileAll(regions, models);

  runtime::SelectorConfig seedConfig;  // policy unset: the seed rule
  const runtime::OffloadSelector seed(seedConfig);
  runtime::SelectorConfig extractedConfig;
  policy::PolicyOptions options;
  options.kind = policy::PolicyKind::ModelCompare;
  extractedConfig.policy = policy::makePolicy(options);
  const runtime::OffloadSelector extracted(extractedConfig);

  // 3 is the smallest n every suite kernel accepts; 9600 is the largest
  // Fig. 6-7 size. The ends exercise degenerate-geometry and deep-offload
  // decisions, the middle the crossover band.
  const std::array<std::int64_t, 6> sizes{3, 4, 16, 100, 1100, 9600};
  // Valid decisions that chose {CPU, GPU}, per path.
  std::array<int, 2> compiledValid{};
  std::array<int, 2> oracleValid{};
  std::array<int, 2> batchValid{};
  std::vector<symbolic::Bindings> allBindings;
  std::vector<std::string> regionNames;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const std::int64_t n : sizes) {
      const symbolic::Bindings bindings = benchmark.bindings(n);
      for (const TargetRegion& kernel : benchmark.kernels()) {
        const pad::RegionAttributes& attr = db.at(kernel.name);
        const std::string context =
            kernel.name + " n=" + std::to_string(n);
        // Compiled fast path.
        const runtime::CompiledRegionPlan seedPlan = seed.compile(attr);
        const runtime::CompiledRegionPlan extractedPlan =
            extracted.compile(attr);
        const runtime::Decision seedCompiled =
            seed.decide(runtime::RegionHandle(seedPlan), bindings);
        const runtime::Decision extractedCompiled =
            extracted.decide(runtime::RegionHandle(extractedPlan), bindings);
        expectBitIdentical(seedCompiled, extractedCompiled,
                           context + " [compiled]");
        expectPaperRule(extractedCompiled, context + " [compiled]",
                        compiledValid);
        // Interpreted oracle walk.
        const runtime::Decision seedOracle =
            oracle::decide(seed, attr, bindings);
        const runtime::Decision extractedOracle =
            oracle::decide(extracted, attr, bindings);
        expectBitIdentical(seedOracle, extractedOracle,
                           context + " [interpreted]");
        expectPaperRule(extractedOracle, context + " [interpreted]",
                        oracleValid);
        regionNames.push_back(kernel.name);
        allBindings.push_back(bindings);
      }
    }
  }

  // decideBatch over the identical request stream: one runtime per rule.
  runtime::RuntimeOptions seedRt;
  seedRt.selector = seedConfig;
  runtime::RuntimeOptions extractedRt;
  extractedRt.selector = extractedConfig;
  runtime::TargetRuntime seedRuntime(compiler::compileAll(regions, models),
                                     seedRt);
  runtime::TargetRuntime extractedRuntime(
      compiler::compileAll(regions, models), extractedRt);
  for (const TargetRegion& region : regions) {
    seedRuntime.registerRegion(region);
    extractedRuntime.registerRegion(region);
  }
  std::vector<runtime::DecideRequest> requests;
  for (std::size_t i = 0; i < allBindings.size(); ++i) {
    requests.push_back({regionNames[i], &allBindings[i]});
  }
  std::vector<runtime::Decision> seedOut(requests.size());
  std::vector<runtime::Decision> extractedOut(requests.size());
  seedRuntime.decideBatch(requests, seedOut);
  extractedRuntime.decideBatch(requests, extractedOut);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string context =
        regionNames[i] + " [batch row " + std::to_string(i) + "]";
    expectBitIdentical(seedOut[i], extractedOut[i], context);
    expectPaperRule(extractedOut[i], context, batchValid);
  }
  // The grid spans the crossover: every path saw valid decisions for both
  // devices, so the rule check above is not vacuous.
  for (const std::array<int, 2>& valid :
       {compiledValid, oracleValid, batchValid}) {
    EXPECT_GT(valid[0], 0);
    EXPECT_GT(valid[1], 0);
  }
}

TEST(CalibratedPolicy, RefitBumpsEpochAndCacheDropsStaleDecisions) {
  policy::PolicyOptions options;
  options.kind = policy::PolicyKind::Calibrated;
  options.calibrationMinSamples = 1;
  const auto calibrated = policy::makePolicy(options);
  obs::TraceSession session;
  runtime::TargetRuntime rt = makeRuntime(gemmKernel(), calibrated, &session);
  const symbolic::Bindings bindings{{"n", 4096}};

  // Healthy factors: large GEMM offloads (the seed rule's answer).
  const runtime::Decision first = rt.decide("gemm", bindings);
  EXPECT_EQ(first.device, runtime::Device::Gpu);
  EXPECT_EQ(session.metrics().counter("decision.compiled").value(), 1u);
  const runtime::Decision second = rt.decide("gemm", bindings);
  EXPECT_EQ(second.device, runtime::Device::Gpu);
  EXPECT_EQ(session.metrics().counter("decision.cache_hit").value(), 1u);

  // A latched drift alarm plus one sample (minSamples=1) refits: the GPU
  // "really" ran 1000x its prediction, so the corrected model must flip
  // the region back to the CPU.
  EXPECT_TRUE(
      calibrated->observe({"gemm", runtime::Device::Gpu, 1.0, 1000.0, true}));
  EXPECT_EQ(calibrated->refits(), 1u);

  // The epoch bump must invalidate the cached pre-refit decision: this
  // decide recomputes (compiled counter advances, cache_hit does not) and
  // lands on the corrected device.
  const runtime::Decision third = rt.decide("gemm", bindings);
  EXPECT_EQ(third.device, runtime::Device::Cpu);
  EXPECT_EQ(session.metrics().counter("decision.compiled").value(), 2u);
  EXPECT_EQ(session.metrics().counter("decision.cache_hit").value(), 1u);

  // The post-refit decision memoizes under the new epoch.
  const runtime::Decision fourth = rt.decide("gemm", bindings);
  EXPECT_EQ(fourth.device, runtime::Device::Cpu);
  EXPECT_EQ(session.metrics().counter("decision.cache_hit").value(), 2u);

  const std::vector<policy::CalibrationFactor> report =
      calibrated->calibrationReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].region, "gemm");
  EXPECT_DOUBLE_EQ(report[0].gpuFactor, 1000.0);
  EXPECT_EQ(report[0].refits, 1u);
  EXPECT_EQ(report[0].pendingSamples, 0u);  // the refit consumed the window
}

// The tsan preset's target: concurrent deciders racing a refit storm. Every
// refit bumps the epoch, so deciders continuously re-derive against fresh
// calibration; after the storm settles the cache must serve the final
// calibration's answer, not any stale intermediate.
TEST(CalibratedPolicy, ConcurrentRefitStormKeepsCacheCoherent) {
  policy::PolicyOptions options;
  options.kind = policy::PolicyKind::Calibrated;
  options.calibrationMinSamples = 1;
  const auto calibrated = policy::makePolicy(options);
  runtime::TargetRuntime rt = makeRuntime(gemmKernel(), calibrated);
  const symbolic::Bindings bindings{{"n", 4096}};

  constexpr int kDeciders = 4;
  constexpr int kDecidesEach = 200;
  constexpr int kRefitsEach = 50;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kDeciders + 2);
  for (int t = 0; t < kDeciders; ++t) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kDecidesEach; ++i) {
        const runtime::Decision decision = rt.decide("gemm", bindings);
        EXPECT_TRUE(decision.valid);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kRefitsEach; ++i) {
        // Alternate between "GPU is terrible" and "GPU is fine" so the
        // preferred device actually flips back and forth under the race.
        const double actual = (i % 2 == t % 2) ? 1000.0 : 1.0;
        (void)calibrated->observe(
            {"gemm", runtime::Device::Gpu, 1.0, actual, /*alarmRaised=*/true});
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(calibrated->refits(), 2u * kRefitsEach);

  // Settle on a known calibration, then the cache must serve its answer.
  EXPECT_TRUE(
      calibrated->observe({"gemm", runtime::Device::Gpu, 1.0, 1000.0, true}));
  EXPECT_EQ(rt.decide("gemm", bindings).device, runtime::Device::Cpu);
  EXPECT_TRUE(
      calibrated->observe({"gemm", runtime::Device::Gpu, 1000.0, 1.0, true}));
  EXPECT_EQ(rt.decide("gemm", bindings).device, runtime::Device::Gpu);
}

TEST(DriftDetectorReset, ResetRegionReArmsButKeepsHistory) {
  obs::DriftOptions options;
  options.baselineSamples = 2;
  options.cusumSlack = 0.0;
  options.cusumThreshold = 0.5;
  obs::DriftDetector detector(options);

  // Establish a low baseline, then sustained excess error latches an alarm.
  (void)detector.recordError("r", 0.1);
  (void)detector.recordError("r", 0.1);
  (void)detector.recordError("other", 0.1);
  bool alarmed = false;
  for (int i = 0; i < 4 && !alarmed; ++i) {
    alarmed = detector.recordError("r", 1.0).alarm;
  }
  ASSERT_TRUE(alarmed);
  detector.recordComparison("r", /*mispredicted=*/true);

  auto statsFor = [&](std::string_view region) {
    for (const obs::RegionDriftStats& stats : detector.stats()) {
      if (stats.region == region) return stats;
    }
    return obs::RegionDriftStats{};
  };
  EXPECT_TRUE(statsFor("r").alarming);
  EXPECT_EQ(statsFor("r").alarms, 1u);

  detector.resetRegion("r");
  const obs::RegionDriftStats after = statsFor("r");
  // Re-armed: the sample stream restarts from scratch...
  EXPECT_EQ(after.samples, 0u);
  EXPECT_DOUBLE_EQ(after.cusum, 0.0);
  EXPECT_FALSE(after.alarming);
  // ...but the monotonic history survives ("latched, then reset").
  EXPECT_EQ(after.alarms, 1u);
  EXPECT_EQ(after.comparisons, 1u);
  EXPECT_EQ(after.mispredictions, 1u);
  // Other regions are untouched; unknown regions are a no-op.
  EXPECT_EQ(statsFor("other").samples, 1u);
  detector.resetRegion("never-seen");
}

// The whole loop in one test: healthy launches arm the drift baseline, a
// host slowdown (the simulated CPU loses most of its cores mid-run while
// the model keeps predicting the 160-thread host; same session and policy)
// latches the CUSUM alarm, the launch feedback channel delivers it to the
// Calibrated policy, the refit fires, and every surface shows it — the
// policy.refit counter, the trace instant, the session's policy status,
// and the drift stats' latched-then-reset shape.
TEST(FeedbackLoop, DriftAlarmTriggersRefitThroughLaunchPath) {
  obs::TraceSession session;
  policy::PolicyOptions options;
  options.kind = policy::PolicyKind::Calibrated;
  const auto calibrated = policy::makePolicy(options);

  // The real Polybench GEMM at test size: the models were calibrated for
  // it, so the healthy-phase error (the drift baseline) is low enough that
  // a genuine slowdown is distinguishable. (A hand-built region with a
  // large healthy error would saturate: |pred-act|/act tops out near 1.0
  // when the actual grows, so a high baseline can never alarm.)
  const polybench::Benchmark* gemm = nullptr;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    if (benchmark.name() == "GEMM") gemm = &benchmark;
  }
  ASSERT_NE(gemm, nullptr);
  const std::string region = gemm->kernels().front().name;
  const symbolic::Bindings bindings =
      gemm->bindings(gemm->size(polybench::Mode::Test));

  {
    // Phase 1: matched models and simulators; 4 Oracle launches feed 8
    // error samples — exactly the drift baseline window. GEMM is compute-
    // bound on the host, so losing cores (phase 2) moves its actual time
    // the way the thread-blind model cannot predict.
    runtime::TargetRuntime healthy =
        makeRuntime(gemm->kernels().front(), calibrated, &session);
    ir::ArrayStore store = gemm->allocate(bindings);
    polybench::initializeInputs(*gemm, bindings, store);
    for (int i = 0; i < 4; ++i) {
      (void)healthy.launch(region, bindings, store, runtime::Policy::Oracle);
    }
  }
  EXPECT_EQ(calibrated->refits(), 0u);

  {
    // Phase 2: the simulated host collapses to 4 usable threads while the
    // model keeps predicting all 160 — same session, same policy, so the
    // baseline learned in phase 1 is what the shifted errors alarm
    // against.
    runtime::TargetRuntime shifted = makeRuntime(
        gemm->kernels().front(), calibrated, &session, /*cpuSimThreads=*/4);
    ir::ArrayStore store = gemm->allocate(bindings);
    polybench::initializeInputs(*gemm, bindings, store);
    for (int i = 0; i < 6; ++i) {
      (void)shifted.launch(region, bindings, store, runtime::Policy::Oracle);
    }
  }

  // The refit fired through the launch path (not a hand-fed observe).
  EXPECT_GE(calibrated->refits(), 1u);
  EXPECT_GE(session.metrics().counter("policy.refit").value(),
            calibrated->refits());

  // The trace narrates it.
  bool sawRefitInstant = false;
  for (const obs::TraceEvent& event : session.snapshot()) {
    if (std::string_view(event.name) == "policy.refit") sawRefitInstant = true;
  }
  EXPECT_TRUE(sawRefitInstant);

  // The session's policy status carries the live calibration.
  const obs::PolicyStatus status = session.policyStatus();
  EXPECT_EQ(status.name, "calibrated");
  EXPECT_TRUE(status.calibrated);
  EXPECT_GE(status.refits, 1u);
  ASSERT_FALSE(status.factors.empty());
  EXPECT_EQ(status.factors[0].region, region);
  // The CPU really ran far slower than its prediction, so the refit
  // correction must scale its predictions up (well above the healthy-phase
  // error level).
  EXPECT_GT(status.factors[0].cpuFactor, 1.5);

  // Drift state shows latched-then-reset: the alarm transitioned, the
  // refit re-armed the region, and nothing is latched now.
  bool sawResetShape = false;
  for (const obs::RegionDriftStats& stats : session.driftStats()) {
    if (stats.region == region && stats.alarms > 0 && !stats.alarming) {
      sawResetShape = true;
    }
  }
  EXPECT_TRUE(sawResetShape);
}

}  // namespace
}  // namespace osel
