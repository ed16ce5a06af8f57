// osel/runtime/policy/hysteresis.h — a dead-band that resists flapping.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "runtime/policy/policy.h"
#include "runtime/policy/sharded.h"

namespace osel::runtime::policy {

/// The Fig. 8 crossover guard: close-call kernels whose predicted speedup
/// hovers around 1.0× are exactly where the models mispredict, and a raw
/// compare flaps between devices on prediction noise. Hysteresis adds a
/// relative dead-band of half-width `hysteresisBand` around the crossover:
///
///   * gpu * (1 + band) < cpu  →  GPU, decisively (and remembered),
///   * cpu * (1 + band) < gpu  →  CPU, decisively (and remembered),
///   * inside the band         →  the region's last decisive choice
///     (first visit inside the band falls back to the raw compare).
///
/// The sticky memory is per region and sharded. Decisions inside the band
/// depend on that memory, so any change to a region's remembered choice
/// bumps stateEpoch() — the DecisionCache then drops decisions cached under
/// the previous memory instead of serving a stale sticky side.
class HysteresisPolicy final : public SelectionPolicy {
 public:
  explicit HysteresisPolicy(const PolicyOptions& options)
      : band_(options.hysteresisBand >= 0.0 ? options.hysteresisBand : 0.0) {}

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::Hysteresis;
  }
  [[nodiscard]] std::string_view name() const override { return "hysteresis"; }

  [[nodiscard]] PolicyChoice choose(const PolicyInputs& inputs) const override;

  [[nodiscard]] std::uint64_t stateEpoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  struct RegionState {
    /// The last decisive (outside-the-band) choice; nullopt before one.
    std::optional<Device> lastDecisive;
  };

  /// choose() is const to callers but maintains the sticky memory —
  /// internally synchronized, like the rest of the policy contract.
  mutable ShardedRegionMap<RegionState> state_;
  double band_;
  mutable std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace osel::runtime::policy
