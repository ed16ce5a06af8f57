// osel/runtime/launch_guard.h — fault tolerance for the launch pipeline.
//
// The paper's production framing (§IV.D) assumes the runtime's launch path
// always completes; real offloading runtimes cannot. This layer makes
// TargetRuntime::launch honor the OpenMP contract that the host CPU path is
// the always-available fallback:
//   * classify launch errors (transient / fatal / model-input),
//   * retry transient GPU failures with capped exponential backoff,
//   * on exhaustion or fatal error fall back to the CPU path,
//   * track GPU health and quarantine it after repeated fatal errors
//     (circuit breaker), re-probing once the quarantine expires.
// Backoff is *accounted* rather than slept: everything else in osel's
// device world is simulated time, so the guard reports the backoff it would
// have waited and the launch record charges it, keeping tests fast and
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/selector.h"

namespace osel::runtime {

/// How the guard classifies a launch-time exception.
enum class ErrorClass {
  None,        ///< no error
  Transient,   ///< retry may succeed (support::TransientLaunchError)
  Fatal,       ///< retrying this launch on this device cannot succeed
  ModelInput,  ///< bad model/PAD input (support::PreconditionError family)
};

[[nodiscard]] std::string toString(ErrorClass value);

/// Why a launch ended up off its preferred device (or degraded).
enum class FallbackReason {
  None,                ///< ran where the policy asked
  TransientExhausted,  ///< transient retries ran out
  FatalError,          ///< fatal/model-input error on the preferred device
  Quarantined,         ///< circuit breaker had the GPU benched
  InvalidDecision,     ///< selector degraded to the safe default device
};

/// A view of a string literal: `.data()` is a static NUL-terminated string.
[[nodiscard]] std::string_view toString(FallbackReason value);

/// Maps an exception thrown by a launch attempt onto the taxonomy.
[[nodiscard]] ErrorClass classifyLaunchError(const std::exception& error);

/// Retry/backoff policy for transient launch failures.
struct RetryPolicy {
  /// Total attempts on the preferred device (1 initial + retries).
  int maxAttempts = 3;
  double backoffBaseSeconds = 100e-6;
  double backoffMultiplier = 2.0;
  double backoffCapSeconds = 5e-3;

  /// Backoff accounted before attempt `attempt` (1-based; attempt 1 waits
  /// nothing): base * multiplier^(attempt-2), capped.
  [[nodiscard]] double backoffBeforeAttempt(int attempt) const;
};

/// One launch attempt as recorded by the guard.
struct LaunchAttempt {
  Device device = Device::Gpu;
  int attempt = 1;  ///< 1-based, per device
  bool succeeded = false;
  ErrorClass errorClass = ErrorClass::None;
  std::string error;            ///< what() of the failure, empty on success
  double seconds = 0.0;         ///< measured execution time on success
  double backoffSeconds = 0.0;  ///< backoff accounted before this attempt
};

/// Outcome of one guarded launch.
struct GuardedExecution {
  bool succeeded = false;
  Device executed = Device::Cpu;  ///< device that produced `seconds`
  double seconds = 0.0;
  FallbackReason fallback = FallbackReason::None;
  std::string fallbackDetail;  ///< error that forced the fallback
  double totalBackoffSeconds = 0.0;
  std::vector<LaunchAttempt> attempts;
  /// True iff any attempt ran on the GPU and the GPU path ultimately failed
  /// with a non-transient error (feeds the circuit breaker).
  bool gpuFatal = false;

  [[nodiscard]] int attemptCount() const {
    return static_cast<int>(attempts.size());
  }
};

/// Executes launches with retry/backoff and CPU fallback.
class LaunchGuard {
 public:
  explicit LaunchGuard(RetryPolicy policy = {});

  /// Measures one execution on a device; throws on launch failure.
  using Measure = std::function<double(Device)>;

  /// Runs `measure(preferred)` with transient retry/backoff. When
  /// `preferred` is Gpu and the GPU path fails (retries exhausted or fatal
  /// error) and `allowFallback` holds, the CPU path runs under the same
  /// retry policy. Never throws for launch failures: a fully failed
  /// execution returns with succeeded == false and the attempt log filled.
  [[nodiscard]] GuardedExecution execute(Device preferred,
                                         const Measure& measure,
                                         bool allowFallback = true) const;

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  /// Retries one device; returns true on success. Appends to `out`.
  bool runDevice(Device device, const Measure& measure,
                 GuardedExecution& out) const;

  RetryPolicy policy_;
};

/// Circuit-breaker configuration for the GPU path.
struct HealthPolicy {
  /// Consecutive fatal GPU errors that open the breaker.
  int quarantineThreshold = 3;
  /// Launches the GPU sits out once the breaker opens; the next GPU-wanting
  /// launch after that probes the device again.
  int quarantineLaunches = 8;
};

/// Tracks GPU launch health for TargetRuntime (the paper's runtime is the
/// only component with launch-to-launch state, so the breaker lives there).
///
/// Thread-safety / memory-order contract: all transitions run as CAS loops
/// over one packed 64-bit word (low half = consecutive-fatal streak, high
/// half = quarantined launches remaining), so concurrent launches may call
/// admitGpu / recordGpuSuccess / recordGpuFatal freely. Under racing fatals
/// the breaker opens *exactly once* at the threshold: the CAS winner whose
/// increment reaches the threshold installs the quarantine and is the only
/// caller for which recordGpuFatal() returns true. All read-modify-writes
/// use acq_rel so a thread that observes the breaker open also observes the
/// fatal counts that opened it; the accessor loads are acquire and may be
/// momentarily stale under traffic (fine for telemetry). quarantinesOpened
/// and totalFatals are monotone.
class DeviceHealthTracker {
 public:
  explicit DeviceHealthTracker(HealthPolicy policy = {});

  /// Whether the breaker is currently open.
  [[nodiscard]] bool quarantined() const { return quarantineRemaining() > 0; }

  /// Called when a launch wants the GPU. Returns false — and consumes one
  /// quarantined launch — while the breaker is open.
  bool admitGpu();

  void recordGpuSuccess();
  /// Records a fatal GPU error; opens the breaker at the threshold.
  /// Returns true iff THIS call opened the breaker (exactly one of any set
  /// of racing callers).
  bool recordGpuFatal();

  [[nodiscard]] int consecutiveFatals() const {
    return unpackFatals(state_.load(std::memory_order_acquire));
  }
  [[nodiscard]] int quarantineRemaining() const {
    return unpackRemaining(state_.load(std::memory_order_acquire));
  }
  [[nodiscard]] int quarantinesOpened() const {
    return quarantinesOpened_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int totalFatals() const {
    return totalFatals_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const HealthPolicy& policy() const { return policy_; }

 private:
  [[nodiscard]] static std::uint64_t pack(int fatals, int remaining) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(fatals)) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(remaining))
            << 32);
  }
  [[nodiscard]] static int unpackFatals(std::uint64_t state) {
    return static_cast<int>(static_cast<std::uint32_t>(state));
  }
  [[nodiscard]] static int unpackRemaining(std::uint64_t state) {
    return static_cast<int>(static_cast<std::uint32_t>(state >> 32));
  }

  HealthPolicy policy_;
  /// Packed {consecutiveFatals, quarantineRemaining}; see class comment.
  std::atomic<std::uint64_t> state_{0};
  std::atomic<int> quarantinesOpened_{0};
  std::atomic<int> totalFatals_{0};
};

}  // namespace osel::runtime
