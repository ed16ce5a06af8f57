#include "obs/trace.h"

#include <cmath>
#include <functional>
#include <thread>

#include "obs/snapshot.h"

namespace osel::obs {

namespace {

std::uint32_t currentTid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

TraceSession::TraceSession(TraceOptions options)
    : origin_(std::chrono::steady_clock::now()),
      events_(options.capacity),
      explain_(options.explainCapacity),
      slow_(options.slowCapacity),
      drift_(options.drift) {
  // Resolve drift counters once; hot-path bumps are then a relaxed atomic.
  driftAlarms_ = &metrics_.counter("drift.alarms");
  driftComparisons_ = &metrics_.counter("drift.comparisons");
  driftMispredictions_ = &metrics_.counter("drift.mispredictions");
}

TraceSession::~TraceSession() {
  if (observingInjector_ &&
      support::faultInjector().observer() == this) {
    support::faultInjector().setObserver(nullptr);
  }
}

std::int64_t TraceSession::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceSession::recordSpan(const char* name, const char* category,
                              std::string_view label, std::int64_t startNs,
                              std::int64_t durNs, TraceArg arg0,
                              TraceArg arg1) {
  TraceEvent event;
  event.kind = EventKind::Span;
  event.name = name;
  event.category = category;
  setLabel(event.label, label);
  event.startNs = startNs;
  event.durNs = durNs;
  event.tid = currentTid();
  event.args = {arg0, arg1};
  events_.push(event);
}

void TraceSession::recordInstant(const char* name, const char* category,
                                 std::string_view label, std::int64_t atNs,
                                 TraceArg arg0, TraceArg arg1) {
  TraceEvent event;
  event.kind = EventKind::Instant;
  event.name = name;
  event.category = category;
  setLabel(event.label, label);
  event.startNs = atNs;
  event.durNs = 0;
  event.tid = currentTid();
  event.args = {arg0, arg1};
  events_.push(event);
}

void TraceSession::onFaultHit(std::string_view point, std::string_view device,
                              support::FaultKind kind, bool fired) {
  (void)device;
  metrics_.counter("fault.hits").add();
  if (fired) metrics_.counter("fault.fires").add();
  recordInstant(fired ? "fault.fire" : "fault.skip", "fault", point, nowNs(),
                {"kind", static_cast<double>(kind)});
}

void TraceSession::observeFaultInjector() {
  support::faultInjector().setObserver(this);
  observingInjector_ = true;
}

DriftSample TraceSession::recordPrediction(std::string_view region,
                                           double predictedSeconds,
                                           double actualSeconds) {
  if (!std::isfinite(predictedSeconds) || !std::isfinite(actualSeconds) ||
      actualSeconds <= 0.0) {
    return {};
  }
  const double absRelError =
      std::fabs(predictedSeconds - actualSeconds) / actualSeconds;
  {
    const std::lock_guard<std::mutex> lock(predictionMutex_);
    const auto it = predictions_.find(region);
    PredictionAccumulator& acc =
        it != predictions_.end()
            ? it->second
            : predictions_.emplace(std::string(region), PredictionAccumulator{})
                  .first->second;
    acc.count += 1;
    acc.sumAbsRelError += absRelError;
    acc.sumPredicted += predictedSeconds;
    acc.sumActual += actualSeconds;
  }
  const DriftSample sample = drift_.recordError(region, absRelError);
  if (sample.alarm) {
    driftAlarms_->add();
    recordInstant("drift.alarm", "drift", region, nowNs(),
                  {"ewma", sample.ewma}, {"cusum", sample.cusum});
  }
  return sample;
}

void TraceSession::resetDriftRegion(std::string_view region) {
  drift_.resetRegion(region);
  recordInstant("drift.reset", "drift", region, nowNs());
}

void TraceSession::setPolicyStatus(PolicyStatus status) {
  const std::lock_guard<std::mutex> lock(policyMutex_);
  policyStatus_ = std::move(status);
}

PolicyStatus TraceSession::policyStatus() const {
  const std::lock_guard<std::mutex> lock(policyMutex_);
  return policyStatus_;
}

void TraceSession::recordExplains(std::span<const DecisionExplain> records) {
  if (records.empty()) return;
  explain_.pushMany(records, nowNs());
}

void TraceSession::recordSlow(const SlowRequestRecord& record) {
  // The clock is read only for a record the caller left unstamped.
  slow_.pushMany(std::span<const SlowRequestRecord>(&record, 1),
                 record.atNs == 0 ? nowNs() : 0);
}

void TraceSession::recordComparison(std::string_view region,
                                    bool mispredicted) {
  drift_.recordComparison(region, mispredicted);
  driftComparisons_->add();
  if (mispredicted) {
    driftMispredictions_->add();
    recordInstant("drift.mispredict", "drift", region, nowNs());
  }
}

std::vector<RegionDriftStats> TraceSession::driftStats() const {
  return drift_.stats();
}

void TraceSession::attachSnapshotWriter(SnapshotWriter* writer) {
  snapshotWriter_.store(writer, std::memory_order_release);
}

void TraceSession::notifyLaunch() {
  if (SnapshotWriter* writer =
          snapshotWriter_.load(std::memory_order_acquire)) {
    writer->tick();
  }
}

std::vector<PredictionStats> TraceSession::predictionStats() const {
  const std::lock_guard<std::mutex> lock(predictionMutex_);
  std::vector<PredictionStats> out;
  out.reserve(predictions_.size());
  for (const auto& [region, acc] : predictions_) {
    PredictionStats stats;
    stats.region = region;
    stats.count = acc.count;
    const auto n = static_cast<double>(acc.count);
    stats.meanAbsRelError = acc.sumAbsRelError / n;
    stats.meanPredictedSeconds = acc.sumPredicted / n;
    stats.meanActualSeconds = acc.sumActual / n;
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace osel::obs
