#include "runtime/launch_guard.h"

#include <algorithm>

#include "support/check.h"
#include "support/error.h"
#include "support/faultinject.h"

namespace osel::runtime {

using support::require;

std::string toString(ErrorClass value) {
  switch (value) {
    case ErrorClass::None:
      return "none";
    case ErrorClass::Transient:
      return "transient";
    case ErrorClass::Fatal:
      return "fatal";
    case ErrorClass::ModelInput:
      return "model-input";
  }
  return "?";
}

std::string_view toString(FallbackReason value) {
  switch (value) {
    case FallbackReason::None:
      return "none";
    case FallbackReason::TransientExhausted:
      return "transient-exhausted";
    case FallbackReason::FatalError:
      return "fatal-error";
    case FallbackReason::Quarantined:
      return "quarantined";
    case FallbackReason::InvalidDecision:
      return "invalid-decision";
  }
  return "?";
}

ErrorClass classifyLaunchError(const std::exception& error) {
  // Typed osel errors classify by machine-readable code — classification
  // stays stable if the class hierarchy gains intermediate layers.
  if (const auto* typed = dynamic_cast<const osel::Error*>(&error)) {
    switch (typed->code()) {
      case ErrorCode::TransientLaunch:
        return ErrorClass::Transient;
      case ErrorCode::DeviceMemory:
      case ErrorCode::DeviceLost:
        return ErrorClass::Fatal;
      case ErrorCode::Precondition:
      case ErrorCode::PadLookup:
        return ErrorClass::ModelInput;
      case ErrorCode::Invariant:
      case ErrorCode::Unknown:
        return ErrorClass::Fatal;
    }
  }
  if (dynamic_cast<const support::PreconditionError*>(&error) != nullptr) {
    // Untyped precondition failures: bad model/PAD input.
    return ErrorClass::ModelInput;
  }
  return ErrorClass::Fatal;
}

double RetryPolicy::backoffBeforeAttempt(int attempt) const {
  if (attempt <= 1) return 0.0;
  double backoff = backoffBaseSeconds;
  for (int i = 2; i < attempt; ++i) backoff *= backoffMultiplier;
  return std::min(backoff, backoffCapSeconds);
}

LaunchGuard::LaunchGuard(RetryPolicy policy) : policy_(policy) {
  require(policy_.maxAttempts >= 1, "LaunchGuard: maxAttempts must be >= 1");
  require(policy_.backoffBaseSeconds >= 0.0 && policy_.backoffCapSeconds >= 0.0,
          "LaunchGuard: backoff times must be >= 0");
  require(policy_.backoffMultiplier >= 1.0,
          "LaunchGuard: backoffMultiplier must be >= 1");
}

bool LaunchGuard::runDevice(Device device, const Measure& measure,
                            GuardedExecution& out) const {
  for (int attempt = 1; attempt <= policy_.maxAttempts; ++attempt) {
    LaunchAttempt record;
    record.device = device;
    record.attempt = attempt;
    record.backoffSeconds = policy_.backoffBeforeAttempt(attempt);
    out.totalBackoffSeconds += record.backoffSeconds;
    try {
      record.seconds = measure(device);
      record.succeeded = true;
      out.attempts.push_back(std::move(record));
      out.succeeded = true;
      out.executed = device;
      out.seconds = out.attempts.back().seconds;
      return true;
    } catch (const std::exception& error) {
      record.errorClass = classifyLaunchError(error);
      record.error = error.what();
      const bool retryable = record.errorClass == ErrorClass::Transient;
      out.attempts.push_back(std::move(record));
      if (!retryable) break;
    }
  }
  return false;
}

GuardedExecution LaunchGuard::execute(Device preferred, const Measure& measure,
                                      bool allowFallback) const {
  GuardedExecution out;
  if (runDevice(preferred, measure, out)) return out;

  // Copy, not reference: the CPU fallback below appends to out.attempts.
  const ErrorClass lastClass = out.attempts.back().errorClass;
  const std::string lastError = out.attempts.back().error;
  const FallbackReason reason = lastClass == ErrorClass::Transient
                                    ? FallbackReason::TransientExhausted
                                    : FallbackReason::FatalError;
  if (preferred == Device::Gpu) {
    out.gpuFatal = lastClass != ErrorClass::Transient;
    if (allowFallback) {
      out.fallback = reason;
      out.fallbackDetail = lastError;
      if (runDevice(Device::Cpu, measure, out)) return out;
    }
  }
  // Preferred CPU failed, fallback disabled, or the CPU fallback itself
  // failed: report the failed execution; the caller owns the final throw.
  if (out.fallback == FallbackReason::None) {
    out.fallback = reason;
    out.fallbackDetail = lastError;
  }
  return out;
}

DeviceHealthTracker::DeviceHealthTracker(HealthPolicy policy)
    : policy_(policy) {
  require(policy_.quarantineThreshold >= 1,
          "DeviceHealthTracker: quarantineThreshold must be >= 1");
  require(policy_.quarantineLaunches >= 1,
          "DeviceHealthTracker: quarantineLaunches must be >= 1");
}

bool DeviceHealthTracker::admitGpu() {
  std::uint64_t state = state_.load(std::memory_order_acquire);
  for (;;) {
    const int remaining = unpackRemaining(state);
    if (remaining <= 0) return true;
    // Consume exactly one quarantined launch; racing admits each consume
    // their own (the CAS retries on interference).
    const std::uint64_t next = pack(unpackFatals(state), remaining - 1);
    if (state_.compare_exchange_weak(state, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return false;
    }
  }
}

void DeviceHealthTracker::recordGpuSuccess() {
  std::uint64_t state = state_.load(std::memory_order_acquire);
  for (;;) {
    if (unpackFatals(state) == 0) return;
    const std::uint64_t next = pack(0, unpackRemaining(state));
    if (state_.compare_exchange_weak(state, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return;
    }
  }
}

bool DeviceHealthTracker::recordGpuFatal() {
  totalFatals_.fetch_add(1, std::memory_order_acq_rel);
  std::uint64_t state = state_.load(std::memory_order_acquire);
  for (;;) {
    const int fatals = unpackFatals(state) + 1;
    const bool opens = fatals >= policy_.quarantineThreshold;
    // The streak resets when the breaker opens, so the threshold counts
    // fatals per quarantine window; the CAS winner that crosses it is the
    // unique opener.
    const std::uint64_t next =
        opens ? pack(0, policy_.quarantineLaunches)
              : pack(fatals, unpackRemaining(state));
    if (state_.compare_exchange_weak(state, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      if (opens) quarantinesOpened_.fetch_add(1, std::memory_order_acq_rel);
      return opens;
    }
  }
}

}  // namespace osel::runtime
