// osel/obs/trace.h — bounded, low-overhead tracing of the launch pipeline.
//
// A TraceSession owns a preallocated ring buffer of fixed-size TraceEvents
// plus a MetricsRegistry and an online predicted-vs-actual error tracker.
// The paper's §V.A observability gesture (an OMPT-flavoured hook surface)
// becomes concrete here: TargetRuntime emits decision spans (tagged
// compiled / cache-hit / degenerate), execution spans with kernel/transfer
// sub-spans, retry/backoff/fallback instants, circuit-breaker transitions,
// and fault-injection hits (TraceSession implements support::FaultObserver).
//
// Design constraints, in priority order:
//   * Detached cost is zero: every runtime hook is `if (trace_) ...` on a
//     raw pointer; with no session attached the launch pipeline performs no
//     observability work and no allocations (pinned by test and bench).
//   * Recording never heap-allocates: TraceEvent stores static-string
//     names/categories by pointer and copies the dynamic label (a region
//     name) into the shared inline label, truncating if oversized. The
//     event ring is a BoundedRing<TraceEvent> (obs/ring.h), as are the
//     explain and slow rings: oldest records overwritten, drops counted.
//   * Timestamps are monotonic nanoseconds since session start
//     (steady_clock), so traces are immune to wall-clock steps. Explicit
//     -timestamp record calls exist so exporter tests are deterministic.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/drift.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/slow.h"
#include "support/faultinject.h"

namespace osel::obs {

class SnapshotWriter;

enum class EventKind : std::uint8_t {
  Span,     ///< has a duration (Chrome "X" complete event)
  Instant,  ///< a point in time (Chrome "i" instant event)
};

/// One optional (key, value) annotation; key is a static string. A null key
/// marks the slot unused.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// Fixed-size trace record — safe to copy into the ring without touching
/// the heap. `name`/`category` must be string literals (or otherwise
/// outlive the session); the label is an inline truncated copy.
struct TraceEvent {
  static constexpr std::size_t kLabelCapacity = obs::kLabelCapacity;

  EventKind kind = EventKind::Span;
  const char* name = "";
  const char* category = "";
  InlineLabel label{};       ///< NUL-terminated, may be empty
  std::int64_t startNs = 0;  ///< ns since session start
  std::int64_t durNs = 0;    ///< 0 for instants
  std::uint32_t tid = 0;     ///< hashed thread id
  std::uint64_t seq = 0;     ///< global record order (survives ring wrap)
  std::array<TraceArg, 2> args{};

  [[nodiscard]] std::string_view labelView() const {
    return std::string_view(label.data());
  }
};

/// The TraceSession event ring. Its timestamp field is startNs, which every
/// record call sets explicitly, so the session never stamps events.
using EventRing = BoundedRing<TraceEvent, &TraceEvent::startNs>;

/// Per-region online predicted-vs-actual accuracy (the online counterpart
/// of the paper's Fig. 6–7 offline comparison).
struct PredictionStats {
  std::string region;
  std::uint64_t count = 0;
  /// Mean of |predicted - actual| / actual across launches.
  double meanAbsRelError = 0.0;
  double meanPredictedSeconds = 0.0;
  double meanActualSeconds = 0.0;
};

/// One region's multiplicative correction under the Calibrated selection
/// policy, as pushed by the runtime (obs must not depend on runtime/policy,
/// so this mirrors policy::CalibrationFactor).
struct PolicyCalibrationFactor {
  std::string region;
  double cpuFactor = 1.0;
  double gpuFactor = 1.0;
  std::uint64_t pendingSamples = 0;
  std::uint64_t refits = 0;
};

/// The live selection policy's identity and calibration state. TargetRuntime
/// pushes this at construction and after every refit; the stats/Prometheus
/// renderers (and `oselctl stats` through them) read it back.
struct PolicyStatus {
  std::string name;          ///< empty until a runtime attaches
  bool calibrated = false;   ///< true when the Calibrated policy is live
  std::uint64_t refits = 0;
  std::vector<PolicyCalibrationFactor> factors;
};

struct TraceOptions {
  /// Ring capacity in events; the ring drops oldest events beyond it.
  std::size_t capacity = 4096;
  /// DecisionExplain ring capacity (forensics records per session).
  std::size_t explainCapacity = 256;
  /// SlowRequestRecord ring capacity (slow/wide-event captures per session).
  std::size_t slowCapacity = 256;
  /// Drift-detector tuning (EWMA/CUSUM over prediction error).
  DriftOptions drift = {};
};

/// One tracing session. Attach to a TargetRuntime (RuntimeOptions::trace)
/// to capture the launch pipeline; call observeFaultInjector() to also
/// capture armed fault-point activity. Thread-safe.
class TraceSession : public support::FaultObserver {
 public:
  explicit TraceSession(TraceOptions options = {});
  /// Detaches from the global fault injector if observeFaultInjector() was
  /// called.
  ~TraceSession() override;

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Monotonic nanoseconds since session construction.
  [[nodiscard]] std::int64_t nowNs() const;

  /// Records a completed span with explicit timestamps (deterministic for
  /// tests; runtime callers pass nowNs()-derived values).
  void recordSpan(const char* name, const char* category,
                  std::string_view label, std::int64_t startNs,
                  std::int64_t durNs, TraceArg arg0 = {}, TraceArg arg1 = {});

  /// Records an instantaneous event.
  void recordInstant(const char* name, const char* category,
                     std::string_view label, std::int64_t atNs,
                     TraceArg arg0 = {}, TraceArg arg1 = {});

  // --- support::FaultObserver ----------------------------------------------
  /// Armed fault-point hit: records an instant ("fault.fire" / "fault.skip")
  /// and bumps the fault.hits / fault.fires counters.
  void onFaultHit(std::string_view point, std::string_view device,
                  support::FaultKind kind, bool fired) override;

  /// Installs this session as the process-global FaultInjector's observer
  /// (single slot, last writer wins). The destructor uninstalls it.
  void observeFaultInjector();

  // --- Prediction accuracy -------------------------------------------------
  /// Feeds one launch's model prediction and measured time for `region`
  /// into the online error tracker (ignored unless both are finite and
  /// actual > 0; returns an all-zero sample then). The same error sample
  /// drives the drift detector; a CUSUM alarm transition raises a
  /// `drift.alarm` trace instant and bumps the drift.alarms counter. The
  /// detector's verdict is returned so the runtime's policy feedback
  /// channel can ride the alarm into SelectionPolicy::observe().
  DriftSample recordPrediction(std::string_view region,
                               double predictedSeconds, double actualSeconds);
  /// Per-region accuracy so far, sorted by region name.
  [[nodiscard]] std::vector<PredictionStats> predictionStats() const;

  // --- Decision forensics --------------------------------------------------
  /// Copies a batch of decision term breakdowns — one decide call's fresh
  /// decisions — into the explain ring with one clock read and one ring
  /// lock: records the caller left at atNs == 0 share that timestamp, seq
  /// follows record order. Ring capacity and drop counting are exactly as
  /// for one recordExplain() per record. Never heap-allocates.
  void recordExplains(std::span<const DecisionExplain> records);
  /// The one-record case of recordExplains().
  void recordExplain(const DecisionExplain& record) {
    recordExplains(std::span<const DecisionExplain>(&record, 1));
  }
  [[nodiscard]] ExplainRing& explainRing() { return explain_; }
  [[nodiscard]] const ExplainRing& explainRing() const { return explain_; }

  // --- Slow-request capture ------------------------------------------------
  /// Copies one slow request's wide event into the slow ring, stamping its
  /// timestamp when the caller left atNs at 0. Never heap-allocates.
  void recordSlow(const SlowRequestRecord& record);
  [[nodiscard]] SlowRing& slowRing() { return slow_; }
  [[nodiscard]] const SlowRing& slowRing() const { return slow_; }

  // --- Drift detection -----------------------------------------------------
  /// Feeds one both-devices-measured launch outcome: `mispredicted` means
  /// the model-chosen device was measured slower than the alternative.
  /// Bumps drift.comparisons / drift.mispredictions and, on misprediction,
  /// records a `drift.mispredict` instant.
  void recordComparison(std::string_view region, bool mispredicted);
  /// Per-region drift state so far, sorted by region name.
  [[nodiscard]] std::vector<RegionDriftStats> driftStats() const;
  [[nodiscard]] const DriftDetector& drift() const { return drift_; }
  /// Re-arms one region's drift detection after a policy refit
  /// (DriftDetector::resetRegion): warm-up restarts against the corrected
  /// model, the latched alarm unlatches, the alarm-count history survives.
  void resetDriftRegion(std::string_view region);

  // --- Selection-policy status ---------------------------------------------
  /// Runtime push: the live policy's name/refits/calibration factors.
  /// Renderers (stats summary, Prometheus) read it with policyStatus().
  void setPolicyStatus(PolicyStatus status);
  [[nodiscard]] PolicyStatus policyStatus() const;

  // --- Periodic snapshots --------------------------------------------------
  /// Attaches (or detaches, with nullptr) a snapshot writer whose tick()
  /// runs on every notifyLaunch(). Not owned; must outlive the attachment.
  void attachSnapshotWriter(SnapshotWriter* writer);
  /// Counts one completed region launch; drives the attached writer.
  void notifyLaunch();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Buffered events, oldest first (at most `capacity`).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    return events_.snapshot();
  }
  /// Total events offered to the ring (recorded + dropped).
  [[nodiscard]] std::uint64_t recorded() const { return events_.recorded(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return events_.dropped(); }
  [[nodiscard]] std::size_t capacity() const { return events_.capacity(); }

  /// Empties the event ring (the explain and slow rings keep their records).
  void clear() { events_.clear(); }

 private:
  std::chrono::steady_clock::time_point origin_;
  MetricsRegistry metrics_;
  EventRing events_;
  ExplainRing explain_;
  SlowRing slow_;
  DriftDetector drift_;
  std::atomic<SnapshotWriter*> snapshotWriter_{nullptr};
  // Resolved once so hot-path bumps never touch the registry maps.
  Counter* driftAlarms_ = nullptr;
  Counter* driftComparisons_ = nullptr;
  Counter* driftMispredictions_ = nullptr;
  bool observingInjector_ = false;

  struct PredictionAccumulator {
    std::uint64_t count = 0;
    double sumAbsRelError = 0.0;
    double sumPredicted = 0.0;
    double sumActual = 0.0;
  };
  mutable std::mutex predictionMutex_;
  std::map<std::string, PredictionAccumulator, std::less<>> predictions_;

  mutable std::mutex policyMutex_;
  PolicyStatus policyStatus_;
};

}  // namespace osel::obs
