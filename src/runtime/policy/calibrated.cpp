#include "runtime/policy/calibrated.h"

#include <cmath>

namespace osel::runtime::policy {

PolicyChoice CalibratedPolicy::choose(const PolicyInputs& inputs) const {
  const RegionState state = state_.peek(inputs.region);
  const double cpu = inputs.cpuSeconds * state.cpuFactor;
  const double gpu = inputs.gpuSeconds * state.gpuFactor;
  return {gpu < cpu ? Device::Gpu : Device::Cpu};
}

bool CalibratedPolicy::observe(const PolicyFeedback& feedback) {
  // Only usable pairs make a ratio; degenerate predictions never reach the
  // compare either, so they must not poison the correction window.
  if (!std::isfinite(feedback.predictedSeconds) ||
      !std::isfinite(feedback.actualSeconds) ||
      feedback.predictedSeconds <= 0.0 || feedback.actualSeconds <= 0.0) {
    return false;
  }
  const double ratio = feedback.actualSeconds / feedback.predictedSeconds;
  const bool refitted = state_.update(feedback.region, [&](RegionState& state) {
    if (feedback.device == Device::Cpu) {
      state.cpuRatioSum += ratio;
      state.cpuSamples += 1;
    } else {
      state.gpuRatioSum += ratio;
      state.gpuSamples += 1;
    }
    if (feedback.alarmRaised) state.alarmPending = true;
    if (!state.alarmPending ||
        state.cpuSamples + state.gpuSamples < minSamples_) {
      return false;
    }
    // Refit: the window means become the new factors (a device with no
    // samples in the window keeps its factor — no evidence, no change),
    // and the window restarts so the next alarm fits post-shift data only.
    if (state.cpuSamples > 0) {
      state.cpuFactor =
          state.cpuRatioSum / static_cast<double>(state.cpuSamples);
    }
    if (state.gpuSamples > 0) {
      state.gpuFactor =
          state.gpuRatioSum / static_cast<double>(state.gpuSamples);
    }
    state.cpuRatioSum = 0.0;
    state.gpuRatioSum = 0.0;
    state.cpuSamples = 0;
    state.gpuSamples = 0;
    state.alarmPending = false;
    state.refits += 1;
    return true;
  });
  if (refitted) {
    refits_.fetch_add(1, std::memory_order_relaxed);
    // Release-publish the new factors to choose() callers: the epoch bump
    // is what invalidates cached decisions, so it must come after the
    // shard-locked state write above.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return refitted;
}

std::vector<CalibrationFactor> CalibratedPolicy::calibrationReport() const {
  std::vector<CalibrationFactor> out;
  for (const auto& [region, state] : state_.snapshot()) {
    CalibrationFactor factor;
    factor.region = region;
    factor.cpuFactor = state.cpuFactor;
    factor.gpuFactor = state.gpuFactor;
    factor.pendingSamples = state.cpuSamples + state.gpuSamples;
    factor.refits = state.refits;
    out.push_back(std::move(factor));
  }
  return out;
}

}  // namespace osel::runtime::policy
