// End-to-end observability: a TargetRuntime with a TraceSession attached
// must narrate the whole launch pipeline — decision spans tagged with the
// path taken (compiled / cache_hit / degenerate), execution spans with GPU
// kernel/transfer sub-spans, retry and fallback instants
// under injected faults, per-launch counters, the decision-cache hit-ratio
// gauge, and the online predicted-vs-actual tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/target_runtime.h"
#include "support/faultinject.h"

namespace osel {
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

runtime::TargetRuntime makeTracedRuntime(obs::TraceSession* session) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const std::array<TargetRegion, 1> regions{streamKernel()};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  runtime::RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  options.trace = session;
  runtime::TargetRuntime rt(std::move(db), options);
  rt.registerRegion(streamKernel());
  return rt;
}

std::vector<obs::TraceEvent> eventsNamed(const obs::TraceSession& session,
                                         const char* name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& event : session.snapshot()) {
    if (std::string_view(event.name) == name) out.push_back(event);
  }
  return out;
}

class RuntimeObservability : public ::testing::Test {
 protected:
  void TearDown() override { support::faultInjector().disarmAll(); }
};

TEST_F(RuntimeObservability, DecisionPathsAreTaggedAndCounted) {
  obs::TraceSession session;
  runtime::TargetRuntime rt = makeTracedRuntime(&session);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);

  (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);
  (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);

  EXPECT_EQ(session.metrics().counter("decision.compiled").value(), 1u);
  EXPECT_EQ(session.metrics().counter("decision.cache_hit").value(), 1u);
  EXPECT_DOUBLE_EQ(session.metrics().gauge("decision_cache.hit_ratio").value(),
                   0.5);
  EXPECT_EQ(
      session.metrics().histogram("decision.overhead_s", {1.0}).count(), 2u);

  const std::vector<obs::TraceEvent> decides = eventsNamed(session, "decide");
  ASSERT_EQ(decides.size(), 2u);
  EXPECT_STREQ(decides[0].category, "compiled");
  EXPECT_STREQ(decides[1].category, "cache_hit");
  EXPECT_EQ(decides[0].labelView(), "stream");
  EXPECT_STREQ(decides[0].args[0].key, "overhead_s");
  EXPECT_EQ(decides[0].args[1].value, 1.0);  // valid

  const std::vector<obs::TraceEvent> launches = eventsNamed(session, "launch");
  ASSERT_EQ(launches.size(), 2u);
  EXPECT_STREQ(launches[0].category, "model-guided");
  EXPECT_GT(launches[0].args[0].value, 0.0);  // actual_s
}

TEST_F(RuntimeObservability, MissingPadEntryTracesDegenerateDecision) {
  obs::TraceSession session;
  runtime::RuntimeOptions options;
  options.trace = &session;
  runtime::TargetRuntime rt{pad::AttributeDatabase{}, options};
  rt.registerRegion(streamKernel());
  const symbolic::Bindings bindings{{"n", 32}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);

  (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);

  EXPECT_EQ(session.metrics().counter("decision.degenerate").value(), 1u);
  const std::vector<obs::TraceEvent> decides = eventsNamed(session, "decide");
  ASSERT_EQ(decides.size(), 1u);
  EXPECT_STREQ(decides[0].category, "degenerate");
  EXPECT_EQ(decides[0].args[1].value, 0.0);  // valid = false
}

TEST_F(RuntimeObservability, GpuLaunchEmitsKernelAndTransferSubSpans) {
  obs::TraceSession session;
  runtime::TargetRuntime rt = makeTracedRuntime(&session);
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);

  (void)rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);

  const std::vector<obs::TraceEvent> gpuSpans = eventsNamed(session, "exec.gpu");
  const std::vector<obs::TraceEvent> kernels = eventsNamed(session, "gpu.kernel");
  const std::vector<obs::TraceEvent> transfers =
      eventsNamed(session, "gpu.transfer");
  ASSERT_EQ(gpuSpans.size(), 1u);
  ASSERT_EQ(kernels.size(), 1u);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(session.metrics().counter("launch.gpu").value(), 1u);
  EXPECT_EQ(session.metrics().counter("launch.cpu").value(), 0u);

  // Sub-spans carry the simulated phase seconds and nest inside the parent.
  EXPECT_GT(kernels[0].args[0].value, 0.0);
  EXPECT_GT(transfers[0].args[0].value, 0.0);
  EXPECT_GE(transfers[0].startNs, gpuSpans[0].startNs);
  EXPECT_LE(kernels[0].startNs + kernels[0].durNs,
            gpuSpans[0].startNs + gpuSpans[0].durNs + 1);

  (void)rt.launch("stream", bindings, store, runtime::Policy::AlwaysCpu);
  EXPECT_EQ(eventsNamed(session, "exec.cpu").size(), 1u);
  EXPECT_EQ(session.metrics().counter("launch.cpu").value(), 1u);
}

TEST_F(RuntimeObservability, RetriesAndFallbacksAreTraced) {
  obs::TraceSession session;
  session.observeFaultInjector();
  runtime::TargetRuntime rt = makeTracedRuntime(&session);
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);

  // Two transient failures, then success: retries but no fallback.
  support::faultInjector().arm(
      support::faultpoints::kGpuLaunch,
      {.kind = support::FaultKind::TransientLaunch, .maxFires = 2});
  const runtime::LaunchRecord recovered =
      rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);
  EXPECT_EQ(recovered.attempts, 3);
  EXPECT_EQ(session.metrics().counter("guard.retries").value(), 2u);
  EXPECT_EQ(session.metrics().counter("guard.fallbacks").value(), 0u);
  EXPECT_GE(session.metrics().counter("fault.fires").value(), 2u);
  EXPECT_EQ(eventsNamed(session, "retry").size(), 2u);
  EXPECT_EQ(eventsNamed(session, "attempt.fail").size(), 2u);

  // A fatal error falls back to the CPU and says so.
  support::faultInjector().arm(
      support::faultpoints::kGpuLaunch,
      {.kind = support::FaultKind::DeviceMemory, .maxFires = 1});
  const runtime::LaunchRecord fallen =
      rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);
  EXPECT_EQ(fallen.chosen, runtime::Device::Cpu);
  EXPECT_EQ(session.metrics().counter("guard.fallbacks").value(), 1u);
  const std::vector<obs::TraceEvent> fallbacks =
      eventsNamed(session, "fallback");
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_STREQ(fallbacks[0].category, "fatal-error");
}

TEST_F(RuntimeObservability, QuarantineTransitionsAreTraced) {
  obs::TraceSession session;
  runtime::TargetRuntime rt = [&] {
    const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
    const std::array<TargetRegion, 1> regions{streamKernel()};
    pad::AttributeDatabase db = compiler::compileAll(regions, models);
    runtime::RuntimeOptions options;
    options.health.quarantineThreshold = 2;
    options.health.quarantineLaunches = 3;
    options.trace = &session;
    runtime::TargetRuntime built(std::move(db), options);
    built.registerRegion(streamKernel());
    return built;
  }();
  const symbolic::Bindings bindings{{"n", 64}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);

  support::faultInjector().arm(support::faultpoints::kGpuLaunch,
                               {.kind = support::FaultKind::DeviceLost});
  for (int i = 0; i < 2; ++i)
    (void)rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);
  ASSERT_TRUE(rt.gpuHealth().quarantined());
  EXPECT_EQ(session.metrics().counter("health.quarantines").value(), 1u);
  EXPECT_EQ(eventsNamed(session, "quarantine.open").size(), 1u);

  // While quarantined, the breaker blocks GPU access without touching it.
  (void)rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);
  EXPECT_EQ(eventsNamed(session, "quarantine.block").size(), 1u);
}

TEST_F(RuntimeObservability, PredictionTrackerFollowsMeasuredLaunches) {
  obs::TraceSession session;
  runtime::TargetRuntime rt = makeTracedRuntime(&session);
  ArrayStore store;
  for (const std::int64_t n : {48, 96, 192}) {
    const symbolic::Bindings bindings{{"n", n}};
    store = allocateArrays(streamKernel(), bindings);
    (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);
  }
  const std::vector<obs::PredictionStats> stats = session.predictionStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].region, "stream");
  EXPECT_EQ(stats[0].count, 3u);
  EXPECT_GT(stats[0].meanActualSeconds, 0.0);
  EXPECT_GE(stats[0].meanAbsRelError, 0.0);
  EXPECT_GT(
      session.metrics().histogram("prediction.abs_rel_error", {1.0}).count(),
      0u);
}

TEST_F(RuntimeObservability, ChromeExportOfARealRunIsWellFormed) {
  obs::TraceSession session;
  runtime::TargetRuntime rt = makeTracedRuntime(&session);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);
  (void)rt.launch("stream", bindings, store, runtime::Policy::AlwaysGpu);

  const std::string json = obs::renderChromeTrace(session);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"launch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gpu.kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gpu.transfer\""), std::string::npos);
  // Balanced object braces — a cheap well-formedness proxy the golden test
  // in export_test.cpp complements with byte-exact output.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(RuntimeObservability, DetachedRuntimeRecordsNothing) {
  obs::TraceSession session;  // never attached
  runtime::TargetRuntime rt = makeTracedRuntime(nullptr);
  EXPECT_EQ(rt.traceSession(), nullptr);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)rt.launch("stream", bindings, store, runtime::Policy::ModelGuided);
  EXPECT_EQ(session.recorded(), 0u);
}

}  // namespace
}  // namespace osel
