// osel/runtime/policy/epsilon_greedy.h — deterministic exploration.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/policy/policy.h"
#include "runtime/policy/sharded.h"

namespace osel::runtime::policy {

/// Keeps the predicted-vs-actual tracker honest: a pure exploit rule only
/// ever measures the device it already believes in, so the feedback channel
/// goes blind on the other side and drift there is invisible. EpsilonGreedy
/// runs the status-quo compare, then with probability `epsilon` flips to
/// the predicted-slower device and marks the decision a probe.
///
/// Probing is deterministic, not random: the k-th decision for a region
/// probes iff splitmix64(seed, fnv1a(region), k) maps below epsilon, so a
/// (seed, request stream) pair reproduces the same probe sequence
/// bit-for-bit — the reproducibility bar every osel bench holds itself to.
///
/// cacheable() is false: the decision cache would replay draw k's outcome
/// forever and the probe rate would collapse to 0 or 1 per cached key. The
/// runtime bypasses the DecisionCache entirely under this policy.
class EpsilonGreedyPolicy final : public SelectionPolicy {
 public:
  explicit EpsilonGreedyPolicy(const PolicyOptions& options)
      : epsilon_(options.epsilon < 0.0   ? 0.0
                 : options.epsilon > 1.0 ? 1.0
                                         : options.epsilon),
        seed_(options.seed) {}

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::EpsilonGreedy;
  }
  [[nodiscard]] std::string_view name() const override {
    return "epsilon-greedy";
  }

  [[nodiscard]] PolicyChoice choose(const PolicyInputs& inputs) const override;

  [[nodiscard]] bool cacheable() const override { return false; }

  /// Probes issued so far (monotonic; feeds the policy.probe counter's
  /// cross-check in tests).
  [[nodiscard]] std::uint64_t probes() const {
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  struct RegionState {
    std::uint64_t decisions = 0;  ///< per-region draw index
  };

  mutable ShardedRegionMap<RegionState> state_;
  double epsilon_;
  std::uint64_t seed_;
  mutable std::atomic<std::uint64_t> probes_{0};
};

}  // namespace osel::runtime::policy
