#include "runtime/target_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "support/check.h"
#include "support/faultinject.h"
#include "support/format.h"

namespace osel::runtime {

using support::require;

std::string_view toString(Policy policy) {
  switch (policy) {
    case Policy::AlwaysCpu:
      return "always-cpu";
    case Policy::AlwaysGpu:
      return "always-gpu";
    case Policy::ModelGuided:
      return "model-guided";
    case Policy::Oracle:
      return "oracle";
  }
  return "?";
}

TargetRuntime::TargetRuntime(pad::AttributeDatabase database,
                             RuntimeOptions options)
    : database_(std::move(database)),
      selector_(options.selector),
      cpuSim_(std::move(options.cpuSim), options.cpuSimThreads > 0
                                             ? options.cpuSimThreads
                                             : options.selector.cpuThreads),
      gpuSim_(std::move(options.gpuSim)),
      guard_(options.retry),
      decisionCacheCapacity_(options.decisionCacheCapacity),
      trace_(options.trace),
      state_(std::make_unique<MutableState>(options.health)) {
  require(decisionCacheCapacity_ <= DecisionCache::kMaxCapacity,
          "RuntimeOptions::decisionCacheCapacity exceeds "
          "DecisionCache::kMaxCapacity");
  policy_ = &selector_.policy();
  initInstruments();
  pushPolicyStatus();
}

void TargetRuntime::initInstruments() {
  if (trace_ == nullptr) return;
  obs::MetricsRegistry& metrics = trace_->metrics();
  instruments_.decisionsCompiled = &metrics.counter("decision.compiled");
  instruments_.decisionsCacheHit = &metrics.counter("decision.cache_hit");
  instruments_.decisionsDegenerate = &metrics.counter("decision.degenerate");
  instruments_.launchesCpu = &metrics.counter("launch.cpu");
  instruments_.launchesGpu = &metrics.counter("launch.gpu");
  instruments_.retries = &metrics.counter("guard.retries");
  instruments_.fallbacks = &metrics.counter("guard.fallbacks");
  instruments_.quarantinesOpened = &metrics.counter("health.quarantines");
  instruments_.policyRefits = &metrics.counter("policy.refit");
  instruments_.cacheHitRatio = &metrics.gauge("decision_cache.hit_ratio");
  instruments_.decisionOverhead = &metrics.histogram(
      "decision.overhead_s", {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2});
  instruments_.predictionError = &metrics.histogram(
      "prediction.abs_rel_error", {0.01, 0.05, 0.1, 0.25, 0.5, 1.0});
  instruments_.batchSize = &metrics.histogram(
      "decide.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
}

std::shared_ptr<const TargetRuntime::RegionEntry> TargetRuntime::findEntry(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(state_->registryMutex);
  const auto it = state_->registry.find(name);
  return it == state_->registry.end() ? nullptr : it->second;
}

void TargetRuntime::registerRegion(ir::TargetRegion region) {
  region.verify();
  const std::string name = region.name;
  // Build the whole immutable entry — including the plan compile, the
  // expensive part — before taking the registry lock, which is held only
  // for the swap.
  auto entry = std::make_shared<RegionEntry>();
  entry->region = std::move(region);
  if (const pad::RegionAttributes* attr = database_.find(name)) {
    entry->plan =
        std::make_shared<const CompiledRegionPlan>(selector_.compile(*attr));
    // A fresh cache: re-registration replaces the plan and drops its
    // memoized decisions (and their counters) atomically with the plan.
    entry->cache = std::make_shared<DecisionCache>(decisionCacheCapacity_);
  }
  // Decides already holding the old entry finish on it. After the swap
  // `replaced` holds the old entry (if any) and drops it after the unlock,
  // so no decide waits while a region's IR, plan and cache are destroyed.
  std::shared_ptr<const RegionEntry> replaced = std::move(entry);
  {
    std::lock_guard<std::mutex> lock(state_->registryMutex);
    state_->registry[name].swap(replaced);
  }
}

bool TargetRuntime::hasRegion(const std::string& name) const {
  return findEntry(name) != nullptr;
}

const CompiledRegionPlan* TargetRuntime::plan(const std::string& name) const {
  const std::shared_ptr<const RegionEntry> entry = findEntry(name);
  return entry == nullptr ? nullptr : entry->plan.get();
}

DecisionCache::Stats TargetRuntime::decisionCacheStats(
    const std::string& name) const {
  const std::shared_ptr<const RegionEntry> entry = findEntry(name);
  return entry == nullptr || entry->cache == nullptr ? DecisionCache::Stats{}
                                                     : entry->cache->stats();
}

double TargetRuntime::measure(const std::string& regionName,
                              const symbolic::Bindings& bindings,
                              ir::ArrayStore& store, Device device) const {
  // The shared_ptr keeps the region alive through the simulation even if a
  // concurrent re-registration replaces it.
  const std::shared_ptr<const RegionEntry> entry = findEntry(regionName);
  require(entry != nullptr,
          "TargetRuntime::measure: unregistered region " + regionName);
  if (device == Device::Cpu) {
    return cpuSim_.simulate(entry->region, bindings, store).seconds;
  }
  return gpuSim_.simulate(entry->region, bindings, store).totalSeconds;
}

double TargetRuntime::measureTraced(const std::string& regionName,
                                    const symbolic::Bindings& bindings,
                                    ir::ArrayStore& store, Device device) {
  if (trace_ == nullptr) return measure(regionName, bindings, store, device);
  const std::shared_ptr<const RegionEntry> entry = findEntry(regionName);
  require(entry != nullptr,
          "TargetRuntime::measure: unregistered region " + regionName);
  const std::int64_t startNs = trace_->nowNs();
  if (device == Device::Cpu) {
    const double seconds =
        cpuSim_.simulate(entry->region, bindings, store).seconds;
    trace_->recordSpan("exec.cpu", "exec", regionName, startNs,
                       trace_->nowNs() - startNs, {"simulated_s", seconds});
    return seconds;
  }
  const gpusim::GpuSimResult result =
      gpuSim_.simulate(entry->region, bindings, store);
  const std::int64_t totalNs = trace_->nowNs() - startNs;
  // The simulator models device time; the span measures host wall time.
  // Project the simulated transfer/kernel fractions onto the wall-clock
  // span so the timeline shows the modeled phase structure, and carry the
  // simulated seconds in the args for exact values.
  if (result.totalSeconds > 0.0 && std::isfinite(result.totalSeconds)) {
    const auto project = [&](double fractionSeconds) {
      return static_cast<std::int64_t>(static_cast<double>(totalNs) *
                                       fractionSeconds / result.totalSeconds);
    };
    const std::int64_t transferNs = project(result.transferSeconds);
    trace_->recordSpan("gpu.transfer", "exec", regionName, startNs, transferNs,
                       {"simulated_s", result.transferSeconds});
    trace_->recordSpan("gpu.kernel", "exec", regionName, startNs + transferNs,
                       project(result.kernelSeconds),
                       {"simulated_s", result.kernelSeconds});
  }
  trace_->recordSpan("exec.gpu", "exec", regionName, startNs, totalNs,
                     {"simulated_s", result.totalSeconds});
  return result.totalSeconds;
}

namespace {

/// One arena per thread: decide/decideBatch are re-entrant across runtimes
/// (the arena is pure scratch, and a tail one runtime left pending runs
/// before another's call reuses it) and steady-state calls reuse its
/// capacity.
BatchArena& threadBatchArena() {
  static thread_local BatchArena arena;
  return arena;
}

}  // namespace

template <typename Bind>
void TargetRuntime::decideGroup(std::string_view region,
                                std::span<const std::uint32_t> group,
                                std::span<Decision> out, Bind&& bind,
                                std::optional<std::uint64_t> cacheEpoch,
                                BatchArena& arena, BatchCounters& counters) {
  const std::size_t rows = group.size();
  const std::shared_ptr<const RegionEntry> entry = findEntry(region);

  // A registered region with a PAD entry has a plan and its cache, which a
  // memoizing call (one with a cache epoch) probes and fills. A region that
  // has a PAD entry but is not registered decides through a plan compiled
  // for this group, without a cache; the PAD probe (and the nearest-name
  // search for misses) runs once per group, off the hot path.
  const CompiledRegionPlan* plan = nullptr;
  DecisionCache* cache = nullptr;
  std::optional<CompiledRegionPlan> groupPlan;
  if (entry != nullptr && entry->plan != nullptr) {
    plan = entry->plan.get();
    if (cacheEpoch.has_value()) cache = entry->cache.get();
  } else {
    const std::string regionName(region);
    const pad::RegionAttributes* attr = database_.find(regionName);
    if (attr == nullptr) {
      const std::string suggestion = database_.nearestRegionName(regionName);
      obs::DecisionExplain* const explains =
          trace_ != nullptr ? arena.explainRows(rows) : nullptr;
      for (std::size_t r = 0; r < rows; ++r) {
        selector_.decideMissingInto(
            regionName, suggestion, out[group[r]],
            explains != nullptr ? explains + r : nullptr);
      }
      counters.degenerate += rows;
      return;
    }
    plan = &groupPlan.emplace(selector_.compile(*attr));
  }

  // Bind every row into the slot-major columns once. A plan that cannot run
  // binds nothing and skips the cache: each of its rows degrades with the
  // plan's recorded reason.
  const bool usable = plan->fastPathUsable();
  arena.beginGroup(rows, plan->slotCount());
  for (std::size_t r = 0; r < rows; ++r) arena.targets[r] = &out[group[r]];
  if (usable) bind(*plan);
  const DecisionCache::KeyBlock keys{arena.columns.data(), arena.masks.data(),
                                     plan->slotCount(), rows};
  // A hit re-serves a decision whose explain record the populating miss
  // already published, so only fresh evaluations fill records below.
  const bool useCache = usable && cache != nullptr && cache->capacity() != 0;
  std::size_t hits = 0;
  if (useCache) {
    hits = cache->findMany(keys, arena.targets.data(), arena.hits.data(),
                           *cacheEpoch);
    counters.cacheLookups += rows;
    counters.cacheHits += hits;
  }
  counters.compiled += rows - hits;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!useCache || arena.hits[r] == 0) {
      arena.missRows.push_back(static_cast<std::uint32_t>(r));
    }
  }
  if (arena.missRows.empty()) return;

  if (usable) {
    plan->completeWorkloadsColumns(
        arena.columns.data(), arena.masks.data(), rows, arena.exprOut.data(),
        arena.exprScratch.data(), arena.cpuWorkloads.data(),
        arena.gpuWorkloads.data());
  }
  obs::DecisionExplain* const explains =
      trace_ != nullptr ? arena.explainRows(arena.missRows.size()) : nullptr;
  for (std::size_t k = 0; k < arena.missRows.size(); ++k) {
    const std::uint32_t r = arena.missRows[k];
    // Decided in place: no workload copy, no temporary, no clock read. A
    // row the plan cannot complete raises the plan's diagnostic from its
    // column row; a memoizing call still caches its key (partial values +
    // mask).
    const ColumnRow row{arena.columns.data(), rows, r, arena.masks[r]};
    const bool complete = usable && arena.bindOk[r] != 0;
    selector_.decideInto(*plan, arena.cpuWorkloads[r], arena.gpuWorkloads[r],
                         *arena.targets[r],
                         explains != nullptr ? explains + k : nullptr,
                         complete ? nullptr : &row);
  }
  if (useCache) {
    cache->insertMany(keys, arena.missRows, arena.targets.data(), *cacheEpoch);
  }
}

Decision TargetRuntime::decide(const std::string& regionName,
                               const symbolic::Bindings& bindings) {
  LaunchRecord scratch;  // decision-path flags only; never logged
  return guardedDecision(regionName, bindings, scratch);
}

Decision TargetRuntime::guardedDecision(const std::string& regionName,
                                        const symbolic::Bindings& bindings,
                                        LaunchRecord& record) {
  const DecideRequest request{regionName, &bindings};
  Decision decision;
  const BatchCounters counters =
      decideRequests(std::span<const DecideRequest>(&request, 1),
                     std::span<Decision>(&decision, 1));
  record.decisionCompiled = counters.degenerate == 0;
  record.decisionCacheHit = counters.cacheHits > 0;
  return decision;
}

void TargetRuntime::decideBatch(std::span<const DecideRequest> requests,
                                std::span<Decision> out) {
  require(out.size() >= requests.size(),
          "TargetRuntime::decideBatch: output span smaller than request span");
  for (const DecideRequest& request : requests) {
    require(request.bindings != nullptr,
            "TargetRuntime::decideBatch: request without bindings");
  }
  if (!requests.empty()) (void)decideRequests(requests, out);
}

BatchCounters TargetRuntime::decideRequests(
    std::span<const DecideRequest> requests, std::span<Decision> out) {
  const std::size_t n = requests.size();
  const std::int64_t startNs = trace_ != nullptr ? trace_->nowNs() : 0;
  const auto wallStart = std::chrono::steady_clock::now();
  BatchArena& arena = threadBatchArena();
  arena.begin(n);
  // Group requests by region: sort the index permutation by name, ties in
  // request order so duplicate keys probe the cache deterministically. The
  // common streams — one region, or already grouped — are detected with a
  // single adjacent pass (same-pointer names short-circuit the compare), so
  // the O(n log n) string sort is only paid for shuffled multi-region
  // batches; skipping it leaves the identity order, which has the same
  // request-order ties the sort would produce.
  bool grouped = true;
  for (std::size_t k = 1; k < n; ++k) {
    const std::string_view prev = requests[k - 1].region;
    const std::string_view cur = requests[k].region;
    if (prev.data() == cur.data() && prev.size() == cur.size()) continue;
    if (prev.compare(cur) > 0) {
      grouped = false;
      break;
    }
  }
  if (!grouped) {
    std::sort(arena.order.begin(), arena.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const int cmp = requests[a].region.compare(requests[b].region);
                return cmp != 0 ? cmp < 0 : a < b;
              });
  }
  // One epoch load per call: the cache epoch is the policy's refit count,
  // so a concurrent refit invalidates this call's cached decisions no later
  // than the next call. Decides intentionally never consult the health
  // tracker — it gates launch() execution, not model evaluation.
  const std::optional<std::uint64_t> epoch = policy_->refits();
  BatchCounters counters;
  std::size_t groups = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::string_view region = requests[arena.order[i]].region;
    std::size_t j = i + 1;
    while (j < n && requests[arena.order[j]].region == region) ++j;
    const std::span<const std::uint32_t> group =
        std::span<const std::uint32_t>(arena.order).subspan(i, j - i);
    // Each row's map merge-joins into its column row; nothing past this
    // binder sees the map.
    const auto bind = [&](const CompiledRegionPlan& plan) {
      for (std::size_t r = 0; r < group.size(); ++r) {
        arena.bindOk[r] =
            plan.bindSlotsColumn(*requests[group[r]].bindings,
                                 arena.columns.data(), group.size(), r,
                                 arena.masks[r])
                ? 1
                : 0;
      }
    };
    decideGroup(region, group, out, bind, epoch, arena, counters);
    ++groups;
    i = j;
  }
  finishCall(requests[arena.order[0]].region, n, groups, startNs, wallStart,
             arena, counters, out);
  // In-process callers read the explain ring right after the call, so its
  // record tail runs before the return.
  arena.runRecord();
  return counters;
}

PendingRecord TargetRuntime::decideColumns(
    std::string_view region, std::span<const std::string_view> slotNames,
    const char* values, std::size_t rows, std::span<Decision> out) {
  require(out.size() >= rows,
          "TargetRuntime::decideColumns: output span smaller than row count");
  if (rows == 0) return {};
  require(values != nullptr || slotNames.empty(),
          "TargetRuntime::decideColumns: value columns missing");
  const std::int64_t startNs = trace_ != nullptr ? trace_->nowNs() : 0;
  const auto wallStart = std::chrono::steady_clock::now();
  BatchArena& arena = threadBatchArena();
  arena.begin(rows);
  // Every row binds the same names, so one mask and one verdict serve all.
  const auto bind = [&](const CompiledRegionPlan& plan) {
    std::uint64_t mask = 0;
    const std::uint8_t ok =
        plan.bindColumns(slotNames, values, rows, arena.columns.data(), mask)
            ? 1
            : 0;
    std::fill_n(arena.masks.begin(), rows, mask);
    std::fill_n(arena.bindOk.begin(), rows, ok);
  };
  // No cache epoch: a wire frame is decided afresh on every row, and the
  // region's cache sees neither a probe nor an insert from it.
  BatchCounters counters;
  decideGroup(region, arena.order, out, bind, std::nullopt, arena, counters);
  finishCall(region, rows, 1, startNs, wallStart, arena, counters, out);
  return PendingRecord(arena, arena.calls);
}

void TargetRuntime::finishCall(std::string_view label, std::size_t n,
                               std::size_t groups, std::int64_t startNs,
                               std::chrono::steady_clock::time_point wallStart,
                               BatchArena& arena, const BatchCounters& counters,
                               std::span<Decision> out) {
  // Every row, cache hit or fresh, reports the call's amortized
  // per-decision cost, and so does every explain record the call filled.
  const double callSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  const double amortized = callSeconds / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) out[i].overheadSeconds = amortized;
  arena.explainSession = trace_;
  arena.explainOverhead = amortized;
  if (counters.cacheLookups > 0) {
    state_->cacheLookups.fetch_add(counters.cacheLookups,
                                   std::memory_order_relaxed);
    state_->cacheHits.fetch_add(counters.cacheHits, std::memory_order_relaxed);
  }
  if (trace_ == nullptr) return;
  // Runtime-wide hit ratio from the launch-path atomics: the per-cache
  // counters stay exact for decisionCacheStats(), but summing them here
  // would walk every registered region per decide.
  const std::uint64_t lookups =
      state_->cacheLookups.load(std::memory_order_relaxed);
  if (lookups > 0) {
    instruments_.cacheHitRatio->set(
        static_cast<double>(state_->cacheHits.load(std::memory_order_relaxed)) /
        static_cast<double>(lookups));
  }
  if (counters.compiled > 0) {
    instruments_.decisionsCompiled->add(counters.compiled);
  }
  if (counters.degenerate > 0) {
    instruments_.decisionsDegenerate->add(counters.degenerate);
  }
  if (counters.cacheHits > 0) {
    instruments_.decisionsCacheHit->add(counters.cacheHits);
  }
  // The per-request overhead histogram gets one amortized sample per call
  // (its count then tallies calls, not requests — the batch_size histogram
  // carries the request volume of multi-row calls).
  instruments_.decisionOverhead->record(amortized);
  if (n == 1) {
    // A one-row call is a scalar decide, whichever entry point served it:
    // one `decide` span tagged with the path its row took.
    const char* path = counters.cacheHits > 0    ? "cache_hit"
                       : counters.degenerate > 0 ? "degenerate"
                                                 : "compiled";
    trace_->recordSpan("decide", path, label, startNs,
                       trace_->nowNs() - startNs, {"overhead_s", amortized},
                       {"valid", out[0].valid ? 1.0 : 0.0});
    return;
  }
  instruments_.batchSize->record(static_cast<double>(n));
  trace_->recordSpan("decide.batch", "batch", label, startNs,
                     trace_->nowNs() - startNs,
                     {"requests", static_cast<double>(n)},
                     {"groups", static_cast<double>(groups)});
}

void TargetRuntime::recordExecution(LaunchRecord& record,
                                    const GuardedExecution& execution) {
  record.attemptLog.insert(record.attemptLog.end(), execution.attempts.begin(),
                           execution.attempts.end());
  record.attempts = static_cast<int>(record.attemptLog.size());
  record.backoffSeconds += execution.totalBackoffSeconds;
  if (record.fallbackReason == FallbackReason::None) {
    record.fallbackReason = execution.fallback;
    record.fallbackDetail = execution.fallbackDetail;
  }
  if (trace_ != nullptr) {
    for (const LaunchAttempt& attempt : execution.attempts) {
      if (attempt.attempt > 1) {
        instruments_.retries->add();
        trace_->recordInstant("retry", "guard", record.regionName,
                              trace_->nowNs(),
                              {"attempt", static_cast<double>(attempt.attempt)},
                              {"backoff_s", attempt.backoffSeconds});
      }
      if (!attempt.succeeded) {
        trace_->recordInstant(
            "attempt.fail", "guard", record.regionName, trace_->nowNs(),
            {"error_class", static_cast<double>(attempt.errorClass)},
            {"device", attempt.device == Device::Gpu ? 1.0 : 0.0});
      }
    }
  }
  // Feed the circuit breaker: a fatal GPU outcome advances the streak, a
  // GPU success clears it; transient exhaustion leaves it unchanged (the
  // device neither failed hard nor proved healthy). recordGpuFatal()
  // returns true for exactly one of any set of racing callers, so the
  // quarantine-open event fires once per opening.
  if (execution.gpuFatal) {
    const bool opened = state_->health.recordGpuFatal();
    if (trace_ != nullptr && opened) {
      instruments_.quarantinesOpened->add();
      trace_->recordInstant("quarantine.open", "health", record.regionName,
                            trace_->nowNs(),
                            {"launches", static_cast<double>(
                                             state_->health.quarantineRemaining())});
    }
  } else if (execution.succeeded && execution.executed == Device::Gpu) {
    state_->health.recordGpuSuccess();
  }
}

void TargetRuntime::finalizeLaunch(const LaunchRecord& record,
                                   std::int64_t startNs) {
  {
    std::lock_guard<std::mutex> lock(state_->logMutex);
    state_->log.push_back(record);
  }
  // The feedback channel runs with or without a session: the policy's
  // observe() hook is how Calibrated learns from measured times.
  feedPolicyFeedback(record);
  if (trace_ == nullptr) return;
  if (record.fallbackReason != FallbackReason::None) {
    instruments_.fallbacks->add();
    trace_->recordInstant("fallback", toString(record.fallbackReason).data(),
                          record.regionName, trace_->nowNs());
  }
  if (record.cpuMeasured) instruments_.launchesCpu->add();
  if (record.gpuMeasured) instruments_.launchesGpu->add();
  trace_->recordSpan("launch", toString(record.policy).data(),
                     record.regionName, startNs, trace_->nowNs() - startNs,
                     {"actual_s", record.actualSeconds},
                     {"attempts", static_cast<double>(record.attempts)});
  trace_->notifyLaunch();
}

void TargetRuntime::feedPolicyFeedback(const LaunchRecord& record) {
  // Invalid decisions carry degenerate predictions — not a usable accuracy
  // sample.
  if (!record.decision.valid) return;
  bool refit = false;
  // Online predicted-vs-actual accuracy (the paper's Fig. 6–7 comparison,
  // tracked live): one sample per device the launch actually measured.
  // The same sample feeds the drift detector (session-attached only) and
  // the selection policy's observe() hook; a CUSUM alarm transition rides
  // along so Calibrated knows when to schedule a refit.
  if (record.cpuMeasured && record.actualCpuSeconds > 0.0) {
    bool alarm = false;
    if (trace_ != nullptr) {
      const obs::DriftSample sample = trace_->recordPrediction(
          record.regionName, record.decision.cpu.seconds,
          record.actualCpuSeconds);
      instruments_.predictionError->record(
          std::fabs(record.decision.cpu.seconds - record.actualCpuSeconds) /
          record.actualCpuSeconds);
      alarm = sample.alarm;
    }
    refit = policy_->observe({record.regionName, Device::Cpu,
                              record.decision.cpu.seconds,
                              record.actualCpuSeconds, alarm}) ||
            refit;
  }
  if (record.gpuMeasured && record.actualGpuSeconds > 0.0) {
    bool alarm = false;
    if (trace_ != nullptr) {
      const obs::DriftSample sample = trace_->recordPrediction(
          record.regionName, record.decision.gpu.totalSeconds,
          record.actualGpuSeconds);
      instruments_.predictionError->record(
          std::fabs(record.decision.gpu.totalSeconds -
                    record.actualGpuSeconds) /
          record.actualGpuSeconds);
      alarm = sample.alarm;
    }
    refit = policy_->observe({record.regionName, Device::Gpu,
                              record.decision.gpu.totalSeconds,
                              record.actualGpuSeconds, alarm}) ||
            refit;
  }
  // Misprediction check: when both devices were measured (Oracle), a
  // model choice that landed on the slower device is a live Fig. 8
  // "wrong side of the crossover" event.
  if (trace_ != nullptr && record.cpuMeasured && record.gpuMeasured &&
      record.actualCpuSeconds > 0.0 && record.actualGpuSeconds > 0.0) {
    const bool gpuFaster = record.actualGpuSeconds < record.actualCpuSeconds;
    const bool choseGpu = record.decision.device == Device::Gpu;
    trace_->recordComparison(record.regionName, gpuFaster != choseGpu);
  }
  if (refit) {
    onPolicyRefit(record.regionName);
  } else if (trace_ != nullptr &&
             policy_->kind() == policy::PolicyKind::Calibrated) {
    // Keep the session's calibration view current between refits too, so
    // stats/Prometheus show pending sample counts as they accumulate.
    pushPolicyStatus();
  }
}

void TargetRuntime::onPolicyRefit(const std::string& regionName) {
  if (trace_ != nullptr) {
    instruments_.policyRefits->add();
    trace_->recordInstant(
        "policy.refit", "policy", regionName, trace_->nowNs(),
        {"refits", static_cast<double>(policy_->refits())},
        {"epoch", static_cast<double>(policy_->refits())});
    // The refit unlatches the region's CUSUM alarm and rebuilds its
    // baseline: post-refit predictions are judged against the corrected
    // model, not the drifted history. Other regions' state is untouched.
    trace_->resetDriftRegion(regionName);
  }
  pushPolicyStatus();
}

void TargetRuntime::pushPolicyStatus() {
  if (trace_ == nullptr) return;
  obs::PolicyStatus status;
  status.name = std::string(policy::toString(policy_->kind()));
  status.calibrated = policy_->kind() == policy::PolicyKind::Calibrated;
  status.refits = policy_->refits();
  const std::vector<policy::CalibrationFactor> factors =
      policy_->calibrationReport();
  status.factors.reserve(factors.size());
  for (const policy::CalibrationFactor& factor : factors) {
    status.factors.push_back({factor.region, factor.cpuFactor,
                              factor.gpuFactor, factor.pendingSamples,
                              factor.refits});
  }
  trace_->setPolicyStatus(std::move(status));
}

std::vector<LaunchRecord> TargetRuntime::logSnapshot() const {
  std::lock_guard<std::mutex> lock(state_->logMutex);
  return state_->log;
}

void TargetRuntime::clearLog() {
  std::lock_guard<std::mutex> lock(state_->logMutex);
  state_->log.clear();
}

LaunchRecord TargetRuntime::launch(const std::string& regionName,
                                   const symbolic::Bindings& bindings,
                                   ir::ArrayStore& store, Policy policy) {
  require(hasRegion(regionName),
          "TargetRuntime::launch: unregistered region " + regionName);
  const std::int64_t launchStartNs = trace_ != nullptr ? trace_->nowNs() : 0;
  LaunchRecord record;
  record.regionName = regionName;
  record.policy = policy;
  record.decision = guardedDecision(regionName, bindings, record);
  record.gpuQuarantined = state_->health.quarantined();

  const auto measureOn = [&](Device device) {
    return measureTraced(regionName, bindings, store, device);
  };

  if (policy == Policy::Oracle) {
    record.preferred = Device::Gpu;
    const GuardedExecution cpuExec =
        guard_.execute(Device::Cpu, measureOn, /*allowFallback=*/false);
    recordExecution(record, cpuExec);
    if (cpuExec.succeeded) {
      record.actualCpuSeconds = cpuExec.seconds;
      record.cpuMeasured = true;
    }
    if (state_->health.admitGpu()) {
      const GuardedExecution gpuExec =
          guard_.execute(Device::Gpu, measureOn, /*allowFallback=*/false);
      recordExecution(record, gpuExec);
      if (gpuExec.succeeded) {
        record.actualGpuSeconds = gpuExec.seconds;
        record.gpuMeasured = true;
      }
    } else if (record.fallbackReason == FallbackReason::None) {
      record.fallbackReason = FallbackReason::Quarantined;
      record.fallbackDetail = "GPU quarantined by circuit breaker";
    }
    if (record.cpuMeasured && record.gpuMeasured) {
      record.chosen = record.actualGpuSeconds < record.actualCpuSeconds
                          ? Device::Gpu
                          : Device::Cpu;
      record.actualSeconds = record.chosen == Device::Gpu
                                 ? record.actualGpuSeconds
                                 : record.actualCpuSeconds;
    } else if (record.cpuMeasured) {
      record.chosen = Device::Cpu;
      record.actualSeconds = record.actualCpuSeconds;
    } else if (record.gpuMeasured) {
      record.chosen = Device::Gpu;
      record.actualSeconds = record.actualGpuSeconds;
    } else {
      finalizeLaunch(record, launchStartNs);
      throw support::DeviceError(
          "CPU", "oracle launch of " + regionName +
                     " failed on every device: " + record.fallbackDetail);
    }
    finalizeLaunch(record, launchStartNs);
    return record;
  }

  Device preferred = record.decision.device;
  switch (policy) {
    case Policy::AlwaysCpu:
      preferred = Device::Cpu;
      break;
    case Policy::AlwaysGpu:
      preferred = Device::Gpu;
      break;
    case Policy::ModelGuided:
      if (!record.decision.valid) {
        record.fallbackReason = FallbackReason::InvalidDecision;
        record.fallbackDetail = record.decision.diagnostic;
      }
      break;
    case Policy::Oracle:
      break;  // handled above
  }
  record.preferred = preferred;

  if (preferred == Device::Gpu && !state_->health.admitGpu()) {
    preferred = Device::Cpu;
    record.fallbackReason = FallbackReason::Quarantined;
    record.fallbackDetail = "GPU quarantined by circuit breaker";
    if (trace_ != nullptr) {
      trace_->recordInstant(
          "quarantine.block", "health", regionName, trace_->nowNs(),
          {"remaining",
           static_cast<double>(state_->health.quarantineRemaining())});
    }
  }

  const GuardedExecution execution =
      guard_.execute(preferred, measureOn, /*allowFallback=*/true);
  recordExecution(record, execution);
  if (!execution.succeeded) {
    finalizeLaunch(record, launchStartNs);
    throw support::DeviceError(
        "CPU", "launch of " + regionName +
                   " failed on every available path: " + record.fallbackDetail);
  }

  record.chosen = execution.executed;
  record.actualSeconds = execution.seconds;
  if (record.chosen == Device::Cpu) {
    record.actualCpuSeconds = record.actualSeconds;
    record.cpuMeasured = true;
  } else {
    record.actualGpuSeconds = record.actualSeconds;
    record.gpuMeasured = true;
  }
  finalizeLaunch(record, launchStartNs);
  return record;
}

namespace {

/// Appends a double formatted exactly as the previous ostringstream
/// implementation did (defaultfloat, precision 9 == %.9g), without a
/// per-row stream allocation.
void appendDouble(std::string& out, double value) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.9g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

void appendInt(std::string& out, long long value) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%lld", value);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string renderLogCsv(std::span<const LaunchRecord> log) {
  constexpr std::string_view kHeader =
      "region,policy,chosen,predicted_cpu_s,predicted_gpu_s,actual_s,"
      "actual_cpu_s,actual_gpu_s,decision_overhead_s,decision_valid,"
      "attempts,fallback,backoff_s,quarantined,decision_path,decision_cache";
  std::string out;
  out.reserve(kHeader.size() + 1 + log.size() * 192);
  out.append(kHeader);
  out.push_back('\n');
  for (const LaunchRecord& record : log) {
    // Region names are caller-controlled: RFC-4180 quote them so a name
    // containing a comma/quote/newline cannot shear the row.
    support::csvQuote(out, record.regionName);
    out.push_back(',');
    out.append(toString(record.policy));
    out.push_back(',');
    out.append(toString(record.chosen));
    out.push_back(',');
    appendDouble(out, record.decision.cpu.seconds);
    out.push_back(',');
    appendDouble(out, record.decision.gpu.totalSeconds);
    out.push_back(',');
    appendDouble(out, record.actualSeconds);
    out.push_back(',');
    if (record.cpuMeasured) appendDouble(out, record.actualCpuSeconds);
    out.push_back(',');
    if (record.gpuMeasured) appendDouble(out, record.actualGpuSeconds);
    out.push_back(',');
    appendDouble(out, record.decision.overheadSeconds);
    out.push_back(',');
    out.push_back(record.decision.valid ? '1' : '0');
    out.push_back(',');
    appendInt(out, record.attempts);
    out.push_back(',');
    out.append(toString(record.fallbackReason));
    out.push_back(',');
    appendDouble(out, record.backoffSeconds);
    out.push_back(',');
    out.push_back(record.gpuQuarantined ? '1' : '0');
    out.push_back(',');
    out.append(record.decisionCompiled ? "compiled" : "degenerate");
    out.push_back(',');
    out.append(record.decisionCacheHit ? "hit" : "miss");
    out.push_back('\n');
  }
  return out;
}

}  // namespace osel::runtime
