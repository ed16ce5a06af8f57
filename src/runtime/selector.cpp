#include "runtime/selector.h"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "support/check.h"
#include "support/faultinject.h"

namespace osel::runtime {

using support::require;

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

cpumodel::CpuWorkload OffloadSelector::cpuWorkload(
    const pad::RegionAttributes& attr, const symbolic::Bindings& bindings) const {
  const auto cyclesIt = attr.machineCyclesPerIter.find(config_.mcaModelName);
  require(cyclesIt != attr.machineCyclesPerIter.end(),
          "OffloadSelector: PAD entry " + attr.regionName +
              " has no MCA cycles for host model " + config_.mcaModelName);
  cpumodel::CpuWorkload workload;
  workload.machineCyclesPerIter = cyclesIt->second;
  workload.parallelTripCount = attr.flatTripCount.evaluate(bindings);
  workload.bytesTouchedPerIteration = attr.bytesTouchedPerIteration;
  // False-sharing flag: a resolved store stride below one cache line.
  for (const pad::StrideAttribute& stride : attr.strides) {
    if (!stride.isStore || !stride.affine) continue;
    const auto resolved = stride.stride.substituteAll(bindings).tryConstant();
    if (!resolved.has_value() || *resolved == 0) continue;
    if (std::abs(*resolved) * stride.elementBytes <
        config_.cpuParams.cacheLineBytes) {
      workload.falseSharingRisk = true;
      break;
    }
  }
  return workload;
}

gpumodel::GpuWorkload OffloadSelector::gpuWorkload(
    const pad::RegionAttributes& attr, const symbolic::Bindings& bindings) const {
  gpumodel::GpuWorkload workload;
  // Special math instructions weigh as several issue slots.
  workload.compInstsPerThread =
      attr.compInstsPerIter + kSpecialInstIssueWeight * attr.specialInstsPerIter;
  workload.fp64Fraction = attr.fp64Fraction;
  for (const pad::StrideAttribute& stride : attr.strides) {
    bool coalesced = false;
    if (stride.affine) {
      const auto resolved = stride.stride.substituteAll(bindings).tryConstant();
      coalesced = resolved.has_value() && std::abs(*resolved) <= 1;
    }
    if (coalesced) {
      workload.coalMemInstsPerThread += stride.countPerIteration;
    } else {
      workload.uncoalMemInstsPerThread += stride.countPerIteration;
    }
  }
  workload.parallelTripCount = attr.flatTripCount.evaluate(bindings);
  workload.bytesToDevice = attr.bytesToDevice.evaluate(bindings);
  workload.bytesFromDevice = attr.bytesFromDevice.evaluate(bindings);
  return workload;
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
  if (const pad::RegionAttributes* attr = region.attributes()) {
    return decideInterpreted(*attr, bindings, explain);
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
                                   obs::DecisionPath path,
                                   obs::DecisionExplain* explain,
                                   BuildWorkloads&& build) const {
  const auto start = std::chrono::steady_clock::now();
  Decision decision;
  if (explain != nullptr) *explain = obs::DecisionExplain{};
  try {
    (void)support::faultInjector().hit(support::faultpoints::kSelectorDecide,
                                       "selector");
    cpumodel::CpuWorkload cpu;
    gpumodel::GpuWorkload gpu;
    build(cpu, gpu, path);
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

Decision OffloadSelector::decideInterpreted(
    const pad::RegionAttributes& attr, const symbolic::Bindings& bindings,
    obs::DecisionExplain* explain) const {
  return evaluate(attr.regionName, obs::DecisionPath::Interpreted, explain,
                  [&](cpumodel::CpuWorkload& cpu, gpumodel::GpuWorkload& gpu,
                      obs::DecisionPath&) {
                    cpu = cpuWorkload(attr, bindings);
                    gpu = gpuWorkload(attr, bindings);
                  });
}

Decision OffloadSelector::decideFromWorkloads(
    const CompiledRegionPlan& plan, const cpumodel::CpuWorkload& cpu,
    const gpumodel::GpuWorkload& gpu, obs::DecisionExplain* explain) const {
  return evaluate(plan.attributes().regionName, obs::DecisionPath::Compiled,
                  explain,
                  [&](cpumodel::CpuWorkload& cpuOut,
                      gpumodel::GpuWorkload& gpuOut, obs::DecisionPath&) {
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
      plan.attributes().regionName, obs::DecisionPath::Compiled, explain,
      [&](cpumodel::CpuWorkload& cpu, gpumodel::GpuWorkload& gpu,
          obs::DecisionPath& path) {
        // One SoA row: with rows == 1 the slot-major column block is a
        // plain slot vector, and the expression workspaces are one entry.
        std::array<std::int64_t, CompiledRegionPlan::kMaxSlots> values{};
        std::uint64_t boundMask = 0;
        if (plan.fastPathUsable() &&
            plan.bindSlotsColumn(bindings, values.data(), 1, 0, boundMask)) {
          std::int64_t exprOut = 0;
          std::int64_t scratch = 0;
          plan.completeWorkloadsColumns(values.data(), &boundMask, 1, &exprOut,
                                        &scratch, &cpu, &gpu);
        } else {
          // Degenerate plan or bindings: re-run the interpreted walk so the
          // failure diagnostics are byte-identical to the oracle path.
          path = obs::DecisionPath::Interpreted;
          cpu = cpuWorkload(plan.attributes(), bindings);
          gpu = gpuWorkload(plan.attributes(), bindings);
        }
      });
}

}  // namespace osel::runtime
