// osel/runtime/policy/policy.h — pluggable CPU-vs-GPU selection policies.
//
// The paper's selector is one hard-coded rule: evaluate both analytical
// models, run where the predicted time is lower. That rule is exactly where
// the known Fig. 8 misses live — kernels near the 1.0× crossover decided
// wrongly — and the drift detector (obs/drift.h) can tell us *when* the
// models have walked away from calibration, but nothing acted on it. This
// layer factors the choice tail of OffloadSelector::resolveChoice into an
// interface so "compare two predictions" becomes one policy among several
// (the Kerncraft / OpenMP-Advisor framing: multiple cost models and advisor
// rules behind one seam). Two policies ship: the paper's rule and its
// drift-corrected variant (docs/POLICIES.md §2).
//
// Deliberately narrow seam: a SelectionPolicy consumes already-evaluated
// prediction pairs. Model evaluation — the compiled plans and the SoA batch
// path — is untouched above it; the policy only
// answers "given these two predicted times for this region, which
// device?". Degenerate predictions (non-finite/non-positive)
// never reach a policy: the selector's safe-default degradation handles
// them identically for every policy, so diagnostics stay byte-stable.
//
// The feedback half closes the drift loop: TargetRuntime feeds each
// launch's measured execution time back through observe(). A stateful
// policy may recalibrate on that signal; when it does, it bumps its
// refits(), which the runtime reads as the DecisionCache epoch (caches are
// keyed per region, epoch-validated), so every decision made under the
// stale calibration lazily drops.
//
// Thread-safety contract: choose() and observe() are called concurrently
// from decide/decideBatch/launch callers with no external locking.
// Implementations lock or atomically publish their state (docs/POLICIES.md
// spells the contract out; test_policy's refit storm runs it under TSan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/device.h"

namespace osel::runtime::policy {

/// The shipped policy set. Parsed/printed by the kebab-case names below.
enum class PolicyKind {
  ModelCompare,  ///< the extracted status quo: lower predicted time wins
  Calibrated,    ///< per-region multiplicative correction, refit on drift
};

[[nodiscard]] std::string_view toString(PolicyKind kind);
/// Parses "model-compare" / "calibrated"; nullopt on anything else (callers
/// own the error surface — CLI flags reject with exit code 2, tests assert).
[[nodiscard]] std::optional<PolicyKind> parsePolicyKind(std::string_view name);
/// The accepted names, comma-separated, for CLI error messages.
[[nodiscard]] std::string policyKindNames();

/// Tuning for makePolicy().
struct PolicyOptions {
  PolicyKind kind = PolicyKind::ModelCompare;
  /// Calibrated: feedback samples a region must accumulate (since its last
  /// refit) before a latched drift alarm triggers a refit.
  std::uint64_t calibrationMinSamples = 4;
};

/// Inputs of one choice: the two model predictions for a region. Only
/// usable predictions reach a policy (finite, strictly positive) — the
/// selector resolves degenerate pairs itself.
struct PolicyInputs {
  std::string_view region;
  double cpuSeconds = 0.0;
  double gpuSeconds = 0.0;
};

/// Outcome of one choice.
struct PolicyChoice {
  Device device = Device::Cpu;
};

/// One launch's measured outcome for a device, fed back after execution.
struct PolicyFeedback {
  std::string_view region;
  Device device = Device::Cpu;
  double predictedSeconds = 0.0;
  double actualSeconds = 0.0;
  /// True when this sample raised (latched) a DriftDetector CUSUM alarm
  /// for the region — the recalibration trigger.
  bool alarmRaised = false;
};

/// One region's live calibration state, for stats/Prometheus surfacing.
struct CalibrationFactor {
  std::string region;
  double cpuFactor = 1.0;
  double gpuFactor = 1.0;
  /// Feedback samples accumulated toward the next refit.
  std::uint64_t pendingSamples = 0;
  std::uint64_t refits = 0;
};

/// The policy interface. Implementations are internally synchronized; every
/// virtual below is safe to call from concurrent decide/decideBatch/launch
/// threads.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Which shipped policy this is; toString(kind()) is its name.
  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// Picks a device for one region given both (usable) predictions.
  [[nodiscard]] virtual PolicyChoice choose(const PolicyInputs& inputs) const = 0;

  /// Feeds one measured execution back. Returns true when the sample
  /// triggered a recalibration (the caller then bumps refit telemetry and
  /// acknowledges the drift alarm). Default: stateless, never refits.
  virtual bool observe(const PolicyFeedback& feedback) {
    (void)feedback;
    return false;
  }

  /// Total refits so far: the monotonic state generation. The runtime reads
  /// it as the DecisionCache epoch, so any bump lazily invalidates every
  /// cached decision made under the previous state. Stateless policies
  /// stay at 0.
  [[nodiscard]] virtual std::uint64_t refits() const { return 0; }

  /// Per-region calibration factors, sorted by region name; empty for
  /// policies without multiplicative state.
  [[nodiscard]] virtual std::vector<CalibrationFactor> calibrationReport()
      const {
    return {};
  }
};

/// Builds one of the shipped policies. Never returns null.
[[nodiscard]] std::shared_ptr<SelectionPolicy> makePolicy(
    const PolicyOptions& options = {});

}  // namespace osel::runtime::policy
