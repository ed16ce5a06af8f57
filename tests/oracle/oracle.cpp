#include "oracle/oracle.h"

#include <cstdlib>
#include <exception>
#include <string>

#include "runtime/compiled_plan.h"
#include "support/check.h"

namespace osel::oracle {

cpumodel::CpuWorkload cpuWorkload(const runtime::OffloadSelector& selector,
                                  const pad::RegionAttributes& attr,
                                  const symbolic::Bindings& bindings) {
  const runtime::SelectorConfig& config = selector.config();
  const auto cyclesIt = attr.machineCyclesPerIter.find(config.mcaModelName);
  if (cyclesIt == attr.machineCyclesPerIter.end()) {
    throw support::PreconditionError("OffloadSelector: PAD entry " +
                                     attr.regionName +
                                     " has no MCA cycles for host model " +
                                     config.mcaModelName);
  }
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
        config.cpuParams.cacheLineBytes) {
      workload.falseSharingRisk = true;
      break;
    }
  }
  return workload;
}

gpumodel::GpuWorkload gpuWorkload(const pad::RegionAttributes& attr,
                                  const symbolic::Bindings& bindings) {
  gpumodel::GpuWorkload workload;
  // Special math instructions weigh as several issue slots.
  workload.compInstsPerThread =
      attr.compInstsPerIter +
      runtime::kSpecialInstIssueWeight * attr.specialInstsPerIter;
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

runtime::Decision decide(const runtime::OffloadSelector& selector,
                         const pad::RegionAttributes& attr,
                         const symbolic::Bindings& bindings,
                         obs::DecisionExplain* explain) {
  cpumodel::CpuWorkload cpu;
  gpumodel::GpuWorkload gpu;
  try {
    cpu = cpuWorkload(selector, attr, bindings);
    gpu = gpuWorkload(attr, bindings);
  } catch (const std::exception& error) {
    runtime::Decision decision;
    decision.device = selector.config().safeDefaultDevice;
    decision.valid = false;
    decision.diagnostic = error.what();
    if (explain != nullptr) {
      *explain = obs::DecisionExplain{};
      explain->setRegion(attr.regionName);
      explain->path = obs::DecisionPath::Degenerate;
      explain->valid = false;
      explain->chosenGpu = decision.device == runtime::Device::Gpu;
      explain->predictedSpeedup = decision.predictedSpeedup();
    }
    return decision;
  }
  // The plan only names the region for the shared tail; its lowering plays
  // no part in the workloads.
  return selector.decideFromWorkloads(selector.compile(attr), cpu, gpu,
                                      explain);
}

}  // namespace osel::oracle
