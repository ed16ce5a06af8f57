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
    // below are safety plumbing no policy may override.
    decision.device = config_.policy
                          ->choose({regionName, decision.cpu.seconds,
                                    decision.gpu.totalSeconds})
                          .device;
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
  explain.seq = 0;
  explain.atNs = 0;
  explain.path = path;
  explain.valid = decision.valid;
  explain.chosenGpu = decision.device == Device::Gpu;
  explain.predictedSpeedup = decision.predictedSpeedup();
  explain.overheadSeconds = decision.overheadSeconds;
}

void OffloadSelector::decideInto(const CompiledRegionPlan& plan,
                                 const cpumodel::CpuWorkload& cpu,
                                 const gpumodel::GpuWorkload& gpu,
                                 Decision& out, obs::DecisionExplain* explain,
                                 const ColumnRow* incomplete) const {
  const std::string& regionName = plan.attributes().regionName;
  // `out` may hold an earlier row's result: reset what the healthy path
  // below does not assign. The explain terms are all written by the
  // explainInto calls, so the record is not cleared up front.
  out.valid = true;
  out.diagnostic.clear();
  out.overheadSeconds = 0.0;
  bool cpuPredicted = false;
  bool gpuPredicted = false;
  obs::DecisionPath path = obs::DecisionPath::Compiled;
  try {
    (void)support::faultInjector().hit(support::faultpoints::kSelectorDecide,
                                       "selector");
    if (incomplete != nullptr) plan.requireCompletable(*incomplete);
    out.cpu = cpuModel_.predict(cpu);
    cpuPredicted = true;
    out.gpu = gpuModel_.predict(gpu);
    gpuPredicted = true;
    if (explain != nullptr) {
      cpumodel::explainInto(cpu, out.cpu, explain->cpu);
      gpumodel::explainInto(gpu, out.gpu, explain->gpu);
    }
    resolveChoice(out, regionName);
  } catch (const std::exception& error) {
    // Leave the row as a fresh Decision the failed evaluation wrote into
    // would hold it: predictions the models did not return are defaults.
    if (!cpuPredicted) out.cpu = cpumodel::CpuPrediction{};
    if (!gpuPredicted) out.gpu = gpumodel::GpuPrediction{};
    out.device = config_.safeDefaultDevice;
    out.valid = false;
    out.diagnostic = error.what();
    path = obs::DecisionPath::Degenerate;
    // The (noexcept) explain fill runs right after both predictions.
    if (explain != nullptr && !gpuPredicted) {
      explain->cpu = obs::CpuTerms{};
      explain->gpu = obs::GpuTerms{};
    }
  }
  if (explain != nullptr) finishExplain(*explain, regionName, path, out);
}

void OffloadSelector::decideMissingInto(std::string_view regionName,
                                        std::string_view suggestion,
                                        Decision& out,
                                        obs::DecisionExplain* explain) const {
  // ModelGuided must degrade, not crash. The diagnostic is the same
  // PadLookupError text at() would have thrown.
  out = Decision{};
  out.valid = false;
  out.device = config_.safeDefaultDevice;
  out.diagnostic =
      pad::PadLookupError(std::string(regionName), std::string(suggestion))
          .what();
  if (explain != nullptr) {
    *explain = obs::DecisionExplain{};
    finishExplain(*explain, regionName, obs::DecisionPath::Degenerate, out);
  }
}

Decision OffloadSelector::decide(const RegionHandle& region,
                                 const symbolic::Bindings& bindings,
                                 obs::DecisionExplain* explain) const {
  Decision decision;
  const CompiledRegionPlan* plan = region.plan();
  if (plan == nullptr) {
    decideMissingInto(region.name(), region.suggestion(), decision, explain);
    return decision;
  }
  const auto start = std::chrono::steady_clock::now();
  // One SoA row: with rows == 1 the slot-major column block is a plain
  // slot vector, and the expression workspaces are one entry.
  std::array<std::int64_t, CompiledRegionPlan::kMaxSlots> values{};
  ColumnRow row{values.data(), 1, 0, 0};
  bool complete = false;
  cpumodel::CpuWorkload cpu;
  gpumodel::GpuWorkload gpu;
  if (plan->fastPathUsable()) {
    complete = plan->bindSlotsColumn(bindings, values.data(), 1, 0,
                                     row.boundMask);
    std::int64_t exprOut = 0;
    std::int64_t scratch = 0;
    plan->completeWorkloadsColumns(values.data(), &row.boundMask, 1, &exprOut,
                                   &scratch, &cpu, &gpu);
  }
  decideInto(*plan, cpu, gpu, decision, explain, complete ? nullptr : &row);
  decision.overheadSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  if (explain != nullptr) explain->overheadSeconds = decision.overheadSeconds;
  return decision;
}

Decision OffloadSelector::decideFromWorkloads(
    const CompiledRegionPlan& plan, const cpumodel::CpuWorkload& cpu,
    const gpumodel::GpuWorkload& gpu, obs::DecisionExplain* explain) const {
  Decision decision;
  decideInto(plan, cpu, gpu, decision, explain);
  return decision;
}

CompiledRegionPlan OffloadSelector::compile(pad::RegionAttributes attr) const {
  return CompiledRegionPlan(std::move(attr), config_.mcaModelName,
                            config_.cpuParams.cacheLineBytes);
}

}  // namespace osel::runtime
