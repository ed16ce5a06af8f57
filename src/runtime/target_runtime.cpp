#include "runtime/target_runtime.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string_view>
#include <utility>

#include "support/check.h"
#include "support/faultinject.h"
#include "support/format.h"

namespace osel::runtime {

using support::require;

std::string toString(Policy policy) {
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

namespace {

/// Static-string policy tag for trace categories (toString allocates).
const char* policyTag(Policy policy) {
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

/// Static-string fallback-reason tag for trace categories.
const char* fallbackTag(FallbackReason reason) {
  switch (reason) {
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
    case FallbackReason::Shed:
      return "shed";
  }
  return "?";
}

/// Releases one admission slot on every way out of launch().
class AdmissionSlot {
 public:
  explicit AdmissionSlot(AdmissionController& controller)
      : controller_(controller) {}
  ~AdmissionSlot() { controller_.exit(); }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionController& controller_;
};

}  // namespace

TargetRuntime::TargetRuntime(pad::AttributeDatabase database,
                             RuntimeOptions options)
    : database_(std::move(database)),
      selector_(options.selector),
      cpuSim_(std::move(options.cpuSim), options.cpuSimThreads > 0
                                             ? options.cpuSimThreads
                                             : options.selector.cpuThreads),
      gpuSim_(std::move(options.gpuSim)),
      guard_(options.retry),
      decisionCacheEnabled_(options.decisionCacheEnabled),
      decisionCacheCapacity_(options.decisionCacheCapacity),
      trace_(options.trace),
      shardCount_(std::max<std::size_t>(1, options.registryShards)),
      shards_(std::make_unique<Shard[]>(shardCount_)),
      state_(std::make_unique<MutableState>(options.health,
                                            options.admission)) {
  require(decisionCacheCapacity_ <= DecisionCache::kMaxCapacity,
          "RuntimeOptions::decisionCacheCapacity exceeds "
          "DecisionCache::kMaxCapacity");
  for (std::size_t i = 0; i < shardCount_; ++i) {
    shards_[i].snapshot.store(std::make_shared<const RegistrySnapshot>(),
                              std::memory_order_release);
  }
  policy_ = &selector_.policy();
  policyCacheable_ = policy_->cacheable();
  initInstruments();
  pushPolicyStatus();
}

void TargetRuntime::initInstruments() {
  if (trace_ == nullptr) return;
  obs::MetricsRegistry& metrics = trace_->metrics();
  instruments_.decisionsCompiled = &metrics.counter("decision.compiled");
  instruments_.decisionsInterpreted = &metrics.counter("decision.interpreted");
  instruments_.decisionsCacheHit = &metrics.counter("decision.cache_hit");
  instruments_.decisionsDegenerate = &metrics.counter("decision.degenerate");
  instruments_.launchesCpu = &metrics.counter("launch.cpu");
  instruments_.launchesGpu = &metrics.counter("launch.gpu");
  instruments_.retries = &metrics.counter("guard.retries");
  instruments_.fallbacks = &metrics.counter("guard.fallbacks");
  instruments_.quarantinesOpened = &metrics.counter("health.quarantines");
  instruments_.launchesShed = &metrics.counter("admission.shed");
  instruments_.policyProbes = &metrics.counter("policy.probe");
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
  const Shard& shard = shards_[shardIndex(name)];
  const std::shared_ptr<const RegistrySnapshot> snapshot =
      shard.snapshot.load(std::memory_order_acquire);
  const auto it = snapshot->find(name);
  return it == snapshot->end() ? nullptr : it->second;
}

void TargetRuntime::registerRegion(ir::TargetRegion region) {
  region.verify();
  const std::string name = region.name;
  // Build the whole immutable entry — including the plan compile, the
  // expensive part — before touching the shard, so registration holds the
  // write lock only for the copy-and-swap publish.
  auto entry = std::make_shared<RegionEntry>();
  entry->region = std::move(region);
  if (selector_.config().useCompiledPlans) {
    if (const pad::RegionAttributes* attr = database_.find(name)) {
      entry->plan = std::make_shared<const CompiledRegionPlan>(
          selector_.compile(*attr));
      // A fresh cache: re-registration replaces the plan and drops its
      // memoized decisions (and their counters) atomically with the plan.
      entry->cache = std::make_shared<DecisionCache>(decisionCacheCapacity_);
    }
  }
  Shard& shard = shards_[shardIndex(name)];
  std::lock_guard<std::mutex> lock(shard.writeMutex);
  // Copy-on-write: readers on the old snapshot are undisturbed; the next
  // snapshot load sees the new entry.
  auto next = std::make_shared<RegistrySnapshot>(
      *shard.snapshot.load(std::memory_order_acquire));
  (*next)[name] = std::move(entry);
  shard.snapshot.store(std::move(next), std::memory_order_release);
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

void TargetRuntime::invalidateDecisionCaches() {
  state_->cacheEpoch.fetch_add(1, std::memory_order_acq_rel);
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

Decision TargetRuntime::decide(const std::string& regionName,
                               const symbolic::Bindings& bindings) {
  LaunchRecord scratch;  // decision-path flags only; never logged
  return guardedDecision(regionName, bindings, scratch);
}

Decision TargetRuntime::guardedDecision(const std::string& regionName,
                                        const symbolic::Bindings& bindings,
                                        LaunchRecord& record) {
  const std::int64_t startNs = trace_ != nullptr ? trace_->nowNs() : 0;
  const char* path = "interpreted";
  obs::Counter* pathCounter = instruments_.decisionsInterpreted;
  Decision decision;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  // Forensics sink: stack storage, filled by the selector, pushed into the
  // session's explain ring below. Detached sessions pass nullptr and the
  // selector skips every explain store.
  obs::DecisionExplain explainStorage;
  obs::DecisionExplain* const explain =
      trace_ != nullptr ? &explainStorage : nullptr;

  // Plan-first ordering keeps the PAD probe (a string-keyed map lookup) off
  // the hot path: a compiled plan only exists when the PAD entry did at
  // registration, and the database is immutable after construction, so
  // probing it is only needed when no plan is available.
  const std::shared_ptr<const RegionEntry> entry = findEntry(regionName);
  if (entry == nullptr || entry->plan == nullptr) {
    if (const pad::RegionAttributes* attr = database_.find(regionName)) {
      decision = selector_.decide(RegionHandle(*attr), bindings, explain);
    } else {
      // Missing/corrupt PAD entry: ModelGuided must degrade, not crash.
      decision = selector_.decide(
          RegionHandle::missing(regionName,
                                database_.nearestRegionName(regionName)),
          bindings, explain);
      path = "degenerate";
      pathCounter = instruments_.decisionsDegenerate;
    }
  } else {
    const CompiledRegionPlan& plan = *entry->plan;
    DecisionCache& cache = *entry->cache;
    record.decisionCompiled = true;
    path = "compiled";
    pathCounter = instruments_.decisionsCompiled;
    // The cache key (bound slot values) determines the decision only when
    // the fast path owns every symbol the models read AND the policy's
    // choices are replayable (EpsilonGreedy's probe draws are not);
    // otherwise skip memoization.
    if (!decisionCacheEnabled_ || cache.capacity() == 0 ||
        !plan.fastPathUsable() || !policyCacheable_) {
      decision = selector_.decide(RegionHandle(plan), bindings, explain);
    } else {
      const auto start = std::chrono::steady_clock::now();
      std::array<std::int64_t, CompiledRegionPlan::kMaxSlots> slotStorage{};
      const std::span<std::int64_t> slotValues(slotStorage.data(),
                                               plan.slotCount());
      std::uint64_t boundMask = 0;
      plan.bindSlots(bindings, slotValues, boundMask);
      const std::uint64_t epoch = effectiveCacheEpoch();
      cacheLookups = 1;
      if (cache.find(boundMask, slotValues, decision, epoch)) {
        cacheHits = 1;
        decision.overheadSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        record.decisionCacheHit = true;
        path = "cache_hit";
        pathCounter = instruments_.decisionsCacheHit;
      } else {
        decision = selector_.decide(RegionHandle(plan), bindings, explain);
        cache.insert(boundMask, slotValues, decision, epoch);
      }
    }
  }

  if (trace_ != nullptr) {
    // A cache hit re-serves a decision whose forensics record was pushed on
    // the miss that populated the cache; the ring already holds it, so only
    // fresh evaluations record.
    if (!record.decisionCacheHit) {
      trace_->recordExplain(explainStorage);
    }
    trace_->recordSpan("decide", path, regionName, startNs,
                       trace_->nowNs() - startNs,
                       {"overhead_s", decision.overheadSeconds},
                       {"valid", decision.valid ? 1.0 : 0.0});
    pathCounter->add();
    if (decision.probe) instruments_.policyProbes->add();
    instruments_.decisionOverhead->record(decision.overheadSeconds);
  }
  publishCacheCounters(cacheLookups, cacheHits);
  return decision;
}

void TargetRuntime::publishCacheCounters(std::uint64_t lookups,
                                         std::uint64_t hits) {
  if (lookups > 0) {
    state_->cacheLookups.fetch_add(lookups, std::memory_order_relaxed);
    state_->cacheHits.fetch_add(hits, std::memory_order_relaxed);
  }
  if (trace_ == nullptr) return;
  // Runtime-wide hit ratio from the launch-path atomics: the per-cache
  // counters stay exact for decisionCacheStats(), but summing them here
  // would walk every shard per decide.
  const std::uint64_t total =
      state_->cacheLookups.load(std::memory_order_relaxed);
  if (total > 0) {
    const std::uint64_t totalHits =
        state_->cacheHits.load(std::memory_order_relaxed);
    instruments_.cacheHitRatio->set(static_cast<double>(totalHits) /
                                    static_cast<double>(total));
  }
}

namespace {

/// One arena per thread: decideBatch is re-entrant across runtimes (the
/// arena is pure scratch) and steady-state batches reuse its capacity.
BatchArena& threadBatchArena() {
  static thread_local BatchArena arena;
  return arena;
}

}  // namespace

void TargetRuntime::decideBatch(std::span<const DecideRequest> requests,
                                std::span<Decision> out) {
  require(out.size() >= requests.size(),
          "TargetRuntime::decideBatch: output span smaller than request span");
  if (requests.empty()) return;
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
  // One epoch load per batch; scalar decide() loads it per call. The
  // combined epoch folds in the policy's state epoch, so a concurrent
  // refit invalidates this batch's cached decisions no later than the next
  // batch. Decide batches intentionally never consult the admission
  // controller or the health tracker — both gate launch() execution, not
  // model evaluation.
  const std::uint64_t epoch = effectiveCacheEpoch();
  BatchCounters counters;
  std::size_t groups = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::string_view region = requests[arena.order[i]].region;
    std::size_t j = i + 1;
    while (j < n && requests[arena.order[j]].region == region) ++j;
    decideGroup(requests,
                std::span<const std::uint32_t>(arena.order).subspan(i, j - i),
                out, epoch, arena, counters);
    ++groups;
    i = j;
  }
  // Cache hits re-serve a memoized decision; their overheadSeconds reports
  // this batch's amortized per-decision cost (fresh evaluations keep the
  // wall time decideFromWorkloads measured for them).
  const double batchSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  const double amortized = batchSeconds / static_cast<double>(n);
  for (const std::uint32_t request : arena.hitRequests) {
    out[request].overheadSeconds = amortized;
  }
  publishCacheCounters(counters.cacheLookups, counters.cacheHits);
  if (trace_ != nullptr) {
    if (counters.compiled > 0) {
      instruments_.decisionsCompiled->add(counters.compiled);
    }
    if (counters.interpreted > 0) {
      instruments_.decisionsInterpreted->add(counters.interpreted);
    }
    if (counters.degenerate > 0) {
      instruments_.decisionsDegenerate->add(counters.degenerate);
    }
    if (counters.cacheHits > 0) {
      instruments_.decisionsCacheHit->add(counters.cacheHits);
    }
    if (counters.probes > 0) {
      instruments_.policyProbes->add(counters.probes);
    }
    // The per-request overhead histogram gets one amortized sample per
    // batch (its count then tallies batches, not requests — the batch_size
    // histogram carries the request volume).
    instruments_.decisionOverhead->record(amortized);
    instruments_.batchSize->record(static_cast<double>(n));
    trace_->recordSpan("decide.batch", "batch",
                       requests[arena.order[0]].region, startNs,
                       trace_->nowNs() - startNs,
                       {"requests", static_cast<double>(n)},
                       {"groups", static_cast<double>(groups)});
  }
}

void TargetRuntime::decideGroup(std::span<const DecideRequest> requests,
                                std::span<const std::uint32_t> group,
                                std::span<Decision> out, std::uint64_t epoch,
                                BatchArena& arena, BatchCounters& counters) {
  const std::string_view region = requests[group.front()].region;
  const std::shared_ptr<const RegionEntry> entry = findEntry(region);
  obs::DecisionExplain explainStorage;
  obs::DecisionExplain* const explain =
      trace_ != nullptr ? &explainStorage : nullptr;

  if (entry == nullptr || entry->plan == nullptr) {
    // No compiled plan: the scalar interpreted/degenerate paths per
    // request, but the PAD probe (and nearest-name search for misses)
    // happens once per group instead of once per request.
    const std::string regionName(region);
    if (const pad::RegionAttributes* attr = database_.find(regionName)) {
      for (const std::uint32_t request : group) {
        out[request] = selector_.decide(RegionHandle(*attr),
                                        *requests[request].bindings, explain);
        if (trace_ != nullptr) trace_->recordExplain(explainStorage);
        if (out[request].probe) ++counters.probes;
        ++counters.interpreted;
      }
    } else {
      const std::string suggestion = database_.nearestRegionName(regionName);
      for (const std::uint32_t request : group) {
        out[request] =
            selector_.decide(RegionHandle::missing(regionName, suggestion),
                             *requests[request].bindings, explain);
        if (trace_ != nullptr) trace_->recordExplain(explainStorage);
        ++counters.degenerate;
      }
    }
    return;
  }

  const CompiledRegionPlan& plan = *entry->plan;
  if (!plan.fastPathUsable()) {
    // Degenerate plan: scalar decide per request (it re-runs the
    // interpreted walk, keeping diagnostics byte-identical to the oracle).
    for (const std::uint32_t request : group) {
      out[request] = selector_.decide(RegionHandle(plan),
                                      *requests[request].bindings, explain);
      if (trace_ != nullptr) trace_->recordExplain(explainStorage);
      if (out[request].probe) ++counters.probes;
      ++counters.compiled;
    }
    return;
  }

  // The SoA fast path: bind every row into slot-major columns, bulk-probe
  // the cache, evaluate the misses with one op walk over all rows.
  DecisionCache& cache = *entry->cache;
  const std::size_t rows = group.size();
  const std::size_t slots = plan.slotCount();
  arena.beginGroup(rows, slots);
  for (std::size_t r = 0; r < rows; ++r) {
    arena.targets[r] = &out[group[r]];
    arena.bindOk[r] =
        plan.bindSlotsColumn(*requests[group[r]].bindings,
                             arena.columns.data(), rows, r, arena.masks[r])
            ? 1
            : 0;
  }
  const DecisionCache::KeyBlock keys{arena.columns.data(), arena.masks.data(),
                                     slots, rows};
  const bool useCache =
      decisionCacheEnabled_ && cache.capacity() != 0 && policyCacheable_;
  if (useCache) {
    const std::size_t hits =
        cache.findMany(keys, arena.targets.data(), arena.hits.data(), epoch);
    counters.cacheLookups += rows;
    counters.cacheHits += hits;
    counters.compiled += rows - hits;
    for (std::size_t r = 0; r < rows; ++r) {
      if (arena.hits[r] != 0) {
        arena.hitRequests.push_back(group[r]);
      } else {
        arena.missRows.push_back(static_cast<std::uint32_t>(r));
      }
    }
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      arena.missRows.push_back(static_cast<std::uint32_t>(r));
    }
    counters.compiled += rows;
  }
  if (arena.missRows.empty()) return;

  plan.completeWorkloadsColumns(arena.columns.data(), arena.masks.data(), rows,
                                arena.exprOut.data(), arena.exprScratch.data(),
                                arena.cpuWorkloads.data(),
                                arena.gpuWorkloads.data());
  for (const std::uint32_t r : arena.missRows) {
    if (arena.bindOk[r] != 0) {
      *arena.targets[r] = selector_.decideFromWorkloads(
          plan, arena.cpuWorkloads[r], arena.gpuWorkloads[r], explain);
    } else {
      // Unbindable rows re-run the scalar compiled decide, which falls back
      // to the interpreted walk for byte-identical diagnostics. Their key
      // (partial values + mask) is still cached, as the scalar path does.
      *arena.targets[r] = selector_.decide(
          RegionHandle(plan), *requests[group[r]].bindings, explain);
    }
    if (trace_ != nullptr) trace_->recordExplain(explainStorage);
    if (arena.targets[r]->probe) ++counters.probes;
  }
  if (useCache) {
    cache.insertMany(keys, arena.missRows, arena.targets.data(), epoch);
  }
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

void TargetRuntime::finalizeLaunch(LaunchRecord& record, std::int64_t startNs) {
  // Fold the launch's simulated cost (execution + accounted backoff) into
  // the admission ledger before logging so the record carries the verdict.
  record.deadlineMissed =
      state_->admission.charge(record.actualSeconds + record.backoffSeconds);
  {
    std::lock_guard<std::mutex> lock(state_->logMutex);
    state_->log.push_back(record);
  }
  // The feedback channel runs with or without a session: the policy's
  // observe() hook is how Calibrated/Hysteresis learn from measured times.
  feedPolicyFeedback(record);
  if (trace_ == nullptr) return;
  if (record.shed) instruments_.launchesShed->add();
  if (record.fallbackReason != FallbackReason::None) {
    instruments_.fallbacks->add();
    trace_->recordInstant("fallback", fallbackTag(record.fallbackReason),
                          record.regionName, trace_->nowNs());
  }
  if (record.cpuMeasured) instruments_.launchesCpu->add();
  if (record.gpuMeasured) instruments_.launchesGpu->add();
  trace_->recordSpan("launch", policyTag(record.policy), record.regionName,
                     startNs, trace_->nowNs() - startNs,
                     {"actual_s", record.actualSeconds},
                     {"attempts", static_cast<double>(record.attempts)});
  trace_->notifyLaunch();
}

void TargetRuntime::feedPolicyFeedback(const LaunchRecord& record) {
  // Shed launches skipped model evaluation; invalid decisions carry
  // degenerate predictions — neither is a usable accuracy sample.
  if (record.shed || !record.decision.valid) return;
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
        {"epoch", static_cast<double>(policy_->stateEpoch())});
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
  status.name = std::string(policy_->name());
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

void TargetRuntime::drain() { state_->admission.drain(); }

void TargetRuntime::resume() { state_->admission.resume(); }

void TargetRuntime::quiesce() { state_->admission.quiesce(); }

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
  const AdmissionOutcome admission = state_->admission.enter();
  require(admission != AdmissionOutcome::Refused,
          "TargetRuntime::launch: runtime is draining (refusing new work)");
  // Admitted and Shed both hold an in-flight slot until this launch is done.
  const AdmissionSlot slot(state_->admission);

  require(hasRegion(regionName),
          "TargetRuntime::launch: unregistered region " + regionName);
  const std::int64_t launchStartNs = trace_ != nullptr ? trace_->nowNs() : 0;
  const bool shed = admission == AdmissionOutcome::Shed;
  LaunchRecord record;
  record.regionName = regionName;
  record.policy = policy;
  if (shed) {
    // Over the in-flight budget: skip model evaluation entirely and run on
    // the always-available safe default — shed work degrades, it does not
    // queue.
    record.shed = true;
    record.decision.device = selector_.config().safeDefaultDevice;
    record.decision.valid = false;
    record.decision.diagnostic = "shed: admission in-flight budget exceeded";
    record.fallbackReason = FallbackReason::Shed;
    record.fallbackDetail = record.decision.diagnostic;
    if (trace_ != nullptr) {
      trace_->recordInstant(
          "admission.shed", "admission", regionName, trace_->nowNs(),
          {"in_flight",
           static_cast<double>(state_->admission.inFlight())});
    }
  } else {
    record.decision = guardedDecision(regionName, bindings, record);
  }
  record.gpuQuarantined = state_->health.quarantined();

  const auto measureOn = [&](Device device) {
    return measureTraced(regionName, bindings, store, device);
  };

  if (!shed && policy == Policy::Oracle) {
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

  // Shed launches (any policy, including Oracle) run once on the safe
  // default device chosen above.
  Device preferred = record.decision.device;
  if (!shed) {
    switch (policy) {
      case Policy::AlwaysCpu:
        preferred = Device::Cpu;
        break;
      case Policy::AlwaysGpu:
        preferred = Device::Gpu;
        break;
      case Policy::ModelGuided:
        preferred = record.decision.device;
        if (!record.decision.valid) {
          record.fallbackReason = FallbackReason::InvalidDecision;
          record.fallbackDetail = record.decision.diagnostic;
        }
        break;
      case Policy::Oracle:
        break;  // handled above
    }
  }
  record.preferred = preferred;

  if (preferred == Device::Gpu && !state_->health.admitGpu()) {
    preferred = Device::Cpu;
    // A shed launch keeps Shed as its fallback reason even when the breaker
    // also redirects it; the shed column already explains the degradation.
    if (!record.shed) {
      record.fallbackReason = FallbackReason::Quarantined;
      record.fallbackDetail = "GPU quarantined by circuit breaker";
    }
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
      "attempts,fallback,backoff_s,quarantined,decision_path,decision_cache,"
      "shed";
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
    out.append(record.decisionCompiled ? "compiled" : "interpreted");
    out.push_back(',');
    out.append(record.decisionCacheHit ? "hit" : "miss");
    out.push_back(',');
    out.push_back(record.shed ? '1' : '0');
    out.push_back('\n');
  }
  return out;
}

}  // namespace osel::runtime
