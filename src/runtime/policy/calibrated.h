// osel/runtime/policy/calibrated.h — online per-region model correction.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "runtime/policy/policy.h"

namespace osel::runtime::policy {

/// Closes the drift loop: per region, learns a multiplicative correction
/// factor per device from the launch path's predicted-vs-actual feedback,
/// and compares *corrected* predictions. Factors start at 1.0 (bit-identical
/// choices to ModelCompare until the first refit) and re-fit only when the
/// obs DriftDetector's CUSUM alarm latches for the region — sustained error
/// drift, not noise:
///
///   observe() accumulates actual/predicted ratios for the measured device.
///   When a feedback sample arrives with alarmRaised (or an alarm is
///   pending from an earlier sample) and the region has accumulated at
///   least `calibrationMinSamples` ratios since its last refit, the region
///   refits: factor_d = mean(actual/predicted) over the window, the window
///   resets, and the policy's refits() bumps so the DecisionCache drops
///   every decision made under the stale factors. The caller (TargetRuntime)
///   then acknowledges the alarm via DriftDetector::resetRegion, re-arming
///   the CUSUM against the post-shift baseline.
///
///   The alarm comes from the trace session's drift detector: a runtime
///   with no session attached always passes alarmRaised = false, so this
///   policy never refits there and decides exactly like ModelCompare
///   (docs/POLICIES.md §3).
///
/// choose() compares cpuSeconds * cpuFactor vs gpuSeconds * gpuFactor.
/// Every region's state lives in one name-sorted map behind one mutex:
/// choose() runs only for rows the decision cache does not serve, so the
/// lock is off the hit path.
class CalibratedPolicy final : public SelectionPolicy {
 public:
  explicit CalibratedPolicy(const PolicyOptions& options)
      : minSamples_(options.calibrationMinSamples > 0
                        ? options.calibrationMinSamples
                        : 1) {}

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::Calibrated;
  }

  [[nodiscard]] PolicyChoice choose(const PolicyInputs& inputs) const override;
  bool observe(const PolicyFeedback& feedback) override;

  [[nodiscard]] std::uint64_t refits() const override {
    return refits_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<CalibrationFactor> calibrationReport()
      const override;

 private:
  struct RegionState {
    double cpuFactor = 1.0;
    double gpuFactor = 1.0;
    /// Ratio window since the last refit.
    double cpuRatioSum = 0.0;
    double gpuRatioSum = 0.0;
    std::uint64_t cpuSamples = 0;
    std::uint64_t gpuSamples = 0;
    /// A CUSUM alarm latched before the window was big enough to refit.
    bool alarmPending = false;
    std::uint64_t refits = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, RegionState, std::less<>> regions_;
  std::uint64_t minSamples_;
  std::atomic<std::uint64_t> refits_{0};
};

}  // namespace osel::runtime::policy
