#include "runtime/selector.h"

#include <array>
#include <chrono>
#include <cmath>
#include <utility>

#include "support/faultinject.h"

namespace osel::runtime {

std::string toString(Device device) {
  return device == Device::Cpu ? "CPU" : "GPU";
}

OffloadSelector::OffloadSelector(SelectorConfig config)
    : config_(std::move(config)),
      cpuModel_(config_.cpuParams, config_.cpuThreads),
      gpuModel_(config_.gpuParams) {
  if (config_.policy == nullptr) {
    config_.policy = policy::makePolicy({});
  }
  modelComparePolicy_ =
      config_.policy->kind() == policy::PolicyKind::ModelCompare;
}

namespace {

/// A predicted time the selector may compare: finite and strictly positive
/// (every model includes constant launch/fork overheads, so a zero or
/// negative estimate is degenerate, not a fast kernel).
bool usablePrediction(double seconds) {
  return std::isfinite(seconds) && seconds > 0.0;
}

}  // namespace

void OffloadSelector::resolveChoice(Decision& decision,
                                    const std::string& regionName) const {
  const bool cpuOk = usablePrediction(decision.cpu.seconds);
  const bool gpuOk = usablePrediction(decision.gpu.totalSeconds);
  if (cpuOk && gpuOk) {
    // Policies govern only this healthy branch; the degenerate branches
    // below are safety plumbing no policy may override. ModelCompare is
    // devirtualized to the seed compare so the default config's choice
    // tail costs exactly what it did before the policy seam existed.
    if (modelComparePolicy_) {
      decision.device = decision.gpu.totalSeconds < decision.cpu.seconds
                            ? Device::Gpu
                            : Device::Cpu;
    } else {
      const policy::PolicyChoice choice = config_.policy->choose(
          {regionName, decision.cpu.seconds, decision.gpu.totalSeconds});
      decision.device = choice.device;
      decision.probe = choice.probe;
    }
  } else if (cpuOk) {
    // Only the always-available host path predicted sanely: run there.
    decision.device = Device::Cpu;
    decision.valid = false;
    decision.diagnostic = "degenerate GPU prediction for " + regionName;
  } else {
    decision.device = config_.safeDefaultDevice;
    decision.valid = false;
    decision.diagnostic = gpuOk ? "degenerate CPU prediction for "
                                : "degenerate CPU and GPU predictions for ";
    decision.diagnostic += regionName;
  }
}

void OffloadSelector::finishExplain(obs::DecisionExplain& explain,
                                    std::string_view regionName,
                                    obs::DecisionPath path,
                                    const Decision& decision) noexcept {
  explain.setRegion(regionName);
  explain.path = path;
  explain.valid = decision.valid;
  explain.chosenGpu = decision.device == Device::Gpu;
  explain.predictedSpeedup = decision.predictedSpeedup();
  explain.overheadSeconds = decision.overheadSeconds;
}

Decision OffloadSelector::decide(const RegionHandle& region,
                                 const symbolic::Bindings& bindings,
                                 obs::DecisionExplain* explain) const {
  if (const CompiledRegionPlan* plan = region.plan()) {
    return decideCompiled(*plan, bindings, explain);
  }
  // Missing PAD entry: ModelGuided must degrade, not crash. The diagnostic
  // is the same PadLookupError text at() would have thrown.
  Decision decision;
  decision.valid = false;
  decision.device = config_.safeDefaultDevice;
  decision.diagnostic = pad::PadLookupError(std::string(region.name()),
                                            std::string(region.suggestion()))
                            .what();
  if (explain != nullptr) {
    *explain = obs::DecisionExplain{};
    finishExplain(*explain, region.name(), obs::DecisionPath::Degenerate,
                  decision);
  }
  return decision;
}

template <typename BuildWorkloads>
Decision OffloadSelector::evaluate(const std::string& regionName,
                                   obs::DecisionExplain* explain,
                                   BuildWorkloads&& build) const {
  const auto start = std::chrono::steady_clock::now();
  Decision decision;
  obs::DecisionPath path = obs::DecisionPath::Compiled;
  if (explain != nullptr) *explain = obs::DecisionExplain{};
  try {
    (void)support::faultInjector().hit(support::faultpoints::kSelectorDecide,
                                       "selector");
    cpumodel::CpuWorkload cpu;
    gpumodel::GpuWorkload gpu;
    build(cpu, gpu);
    decision.cpu = cpuModel_.predict(cpu);
    decision.gpu = gpuModel_.predict(gpu);
    if (explain != nullptr) {
      cpumodel::explainInto(cpu, decision.cpu, explain->cpu);
      gpumodel::explainInto(gpu, decision.gpu, explain->gpu);
    }
    resolveChoice(decision, regionName);
  } catch (const std::exception& error) {
    decision.device = config_.safeDefaultDevice;
    decision.valid = false;
    decision.diagnostic = error.what();
    path = obs::DecisionPath::Degenerate;
  }
  const auto end = std::chrono::steady_clock::now();
  decision.overheadSeconds =
      std::chrono::duration<double>(end - start).count();
  if (explain != nullptr) {
    finishExplain(*explain, regionName, path, decision);
  }
  return decision;
}

Decision OffloadSelector::decideFromWorkloads(
    const CompiledRegionPlan& plan, const cpumodel::CpuWorkload& cpu,
    const gpumodel::GpuWorkload& gpu, obs::DecisionExplain* explain) const {
  return evaluate(plan.attributes().regionName, explain,
                  [&](cpumodel::CpuWorkload& cpuOut,
                      gpumodel::GpuWorkload& gpuOut) {
                    cpuOut = cpu;
                    gpuOut = gpu;
                  });
}

CompiledRegionPlan OffloadSelector::compile(pad::RegionAttributes attr) const {
  return CompiledRegionPlan(std::move(attr), config_.mcaModelName,
                            config_.cpuParams.cacheLineBytes);
}

Decision OffloadSelector::decideCompiled(
    const CompiledRegionPlan& plan, const symbolic::Bindings& bindings,
    obs::DecisionExplain* explain) const {
  return evaluate(
      plan.attributes().regionName, explain,
      [&](cpumodel::CpuWorkload& cpu, gpumodel::GpuWorkload& gpu) {
        // One SoA row: with rows == 1 the slot-major column block is a
        // plain slot vector, and the expression workspaces are one entry.
        std::array<std::int64_t, CompiledRegionPlan::kMaxSlots> values{};
        std::uint64_t boundMask = 0;
        if (!plan.fastPathUsable() ||
            !plan.bindSlotsColumn(bindings, values.data(), 1, 0, boundMask)) {
          plan.requireCompletable(bindings, boundMask);
        }
        std::int64_t exprOut = 0;
        std::int64_t scratch = 0;
        plan.completeWorkloadsColumns(values.data(), &boundMask, 1, &exprOut,
                                      &scratch, &cpu, &gpu);
      });
}

}  // namespace osel::runtime
