#include "runtime/policy/calibrated.h"

#include <cmath>

namespace osel::runtime::policy {

PolicyChoice CalibratedPolicy::choose(const PolicyInputs& inputs) const {
  double cpuFactor = 1.0;
  double gpuFactor = 1.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = regions_.find(inputs.region);
    if (it != regions_.end()) {
      cpuFactor = it->second.cpuFactor;
      gpuFactor = it->second.gpuFactor;
    }
  }
  const double cpu = inputs.cpuSeconds * cpuFactor;
  const double gpu = inputs.gpuSeconds * gpuFactor;
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
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = regions_.find(feedback.region);
    if (it == regions_.end()) {
      it = regions_.emplace(std::string(feedback.region), RegionState{}).first;
    }
    RegionState& state = it->second;
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
  }
  // Release-publish the new factors to choose() callers: the refit count is
  // the cache epoch that invalidates cached decisions, so it must come
  // after the locked state write above.
  refits_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

std::vector<CalibrationFactor> CalibratedPolicy::calibrationReport() const {
  std::vector<CalibrationFactor> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(regions_.size());
  for (const auto& [region, state] : regions_) {
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
