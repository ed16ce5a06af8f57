// osel/runtime/target_runtime.h — the OpenMP-style offloading runtime.
//
// Ties the framework together (paper Fig. 2, §IV.D): registered target
// regions carry two "generated versions" (played by the ground-truth CPU
// and GPU simulators); on launch the runtime applies a policy —
//   AlwaysGpu     the OpenMP-compliant default (target regions offload),
//   AlwaysCpu     the host fallback path,
//   ModelGuided   the paper's contribution: PAD + analytical models decide,
//   Oracle        measures both and picks the true winner (upper bound)
// — executes accordingly, and logs the launch for the evaluation benches.
//
// Concurrency: the runtime is safe for concurrent registerRegion / decide /
// launch callers (the ROADMAP's `oseld` service needs many). The registry
// is sharded by region-name hash, and each shard publishes an immutable
// RCU-style snapshot (std::shared_ptr atomically swapped on registration),
// so the decide hot path never takes a registry lock and registration never
// stalls in-flight decides — readers finish on the snapshot they loaded.
// Per-region decision caches are internally locked (the per-region caches
// are the lock stripes), launch-log appends are mutex-guarded, and the
// health tracker / admission counters are atomic. See the "Thread-safety
// contract" section of docs/ROBUSTNESS.md for what callers may rely on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cpusim/cpu_simulator.h"
#include "gpusim/gpu_simulator.h"
#include "ir/region.h"
#include "obs/trace.h"
#include "pad/attribute_db.h"
#include "runtime/admission.h"
#include "runtime/batch.h"
#include "runtime/compiled_plan.h"
#include "runtime/decision_cache.h"
#include "runtime/launch_guard.h"
#include "runtime/selector.h"

namespace osel::runtime {

/// Launch-time device-selection policy.
enum class Policy { AlwaysCpu, AlwaysGpu, ModelGuided, Oracle };

[[nodiscard]] std::string toString(Policy policy);

/// One logged launch.
struct LaunchRecord {
  std::string regionName;
  Policy policy = Policy::AlwaysGpu;
  Device chosen = Device::Gpu;
  /// Model evaluation (filled for every policy so benches can compare
  /// predictions even under fixed policies).
  Decision decision;
  /// Measured times; a device not exercised under the policy is NaN,
  /// except Oracle which always measures both.
  double actualCpuSeconds = 0.0;
  bool cpuMeasured = false;
  double actualGpuSeconds = 0.0;
  bool gpuMeasured = false;
  /// Time of the device that actually ran.
  double actualSeconds = 0.0;

  // --- Fault-tolerance telemetry (runtime/launch_guard.h) -----------------
  /// Device the policy wanted before quarantine/fallback intervened.
  Device preferred = Device::Gpu;
  /// True when the GPU circuit breaker was open as this launch arrived.
  bool gpuQuarantined = false;
  /// Why the launch degraded; None on the healthy path.
  FallbackReason fallbackReason = FallbackReason::None;
  std::string fallbackDetail;
  /// Total measurement attempts across devices (1 on the healthy path;
  /// Oracle counts both devices' attempts).
  int attempts = 1;
  /// Retry backoff charged to this launch (accounted simulated time).
  double backoffSeconds = 0.0;
  /// Per-attempt trace: device, outcome, error class, backoff.
  std::vector<LaunchAttempt> attemptLog;

  // --- Decision-path telemetry (runtime/compiled_plan.h) ------------------
  /// True when the decision came from a compiled region plan (false: the
  /// interpreted oracle path, or no PAD entry / plan available).
  bool decisionCompiled = false;
  /// True when the decision was served from the memoization cache.
  bool decisionCacheHit = false;

  // --- Admission telemetry (runtime/admission.h) --------------------------
  /// True when admission control shed this launch over the in-flight
  /// budget: model evaluation was skipped and the decision degraded to
  /// SelectorConfig::safeDefaultDevice.
  bool shed = false;
  /// True when the launch's simulated cost exceeded the per-launch
  /// deadline in AdmissionPolicy (accounted, not enforced).
  bool deadlineMissed = false;
};

/// Everything configurable about a TargetRuntime, in one aggregate: the
/// selector's machine configuration, both ground-truth simulators,
/// fault-tolerance policies, decision memoization, and the optional
/// observability session. Field order is chosen so pre-existing designated
/// initializers (.retry, .health, .decisionCacheEnabled, ...) keep
/// compiling unchanged — new knobs append at the end.
struct RuntimeOptions {
  /// Machine configuration the selector evaluates against.
  SelectorConfig selector;
  /// Ground-truth CPU simulator parameters.
  cpusim::CpuSimParams cpuSim;
  /// Simulated host threads backing the CPU simulator; 0 (the default)
  /// means "use selector.cpuThreads", keeping the simulated machine and the
  /// modeled machine in agreement.
  int cpuSimThreads = 0;
  /// Ground-truth GPU simulator parameters.
  gpusim::GpuSimParams gpuSim;
  RetryPolicy retry;
  HealthPolicy health;
  /// Per-region decision memoization (only on the compiled-plan path; keyed
  /// by the hashed slot values a launch binds). The constructor rejects a
  /// capacity above DecisionCache::kMaxCapacity with PreconditionError.
  bool decisionCacheEnabled = true;
  std::size_t decisionCacheCapacity = 64;
  /// Observability session the runtime emits spans/events/metrics into.
  /// Not owned; must outlive the runtime. nullptr (the default) disables
  /// all observability work: every hook is one pointer test, no
  /// allocations (pinned by test and bench).
  obs::TraceSession* trace = nullptr;
  /// Overload protection (in-flight budget, deadline ledger, drain). The
  /// default policy admits everything.
  AdmissionPolicy admission;
  /// Registry shards for concurrent registration/decide; clamped to >= 1.
  std::size_t registryShards = 8;
};

/// The runtime: device simulators + PAD + selector + launch guard + health
/// tracker + admission controller + launch log.
class TargetRuntime {
 public:
  explicit TargetRuntime(pad::AttributeDatabase database,
                         RuntimeOptions options = {});

  /// Registers the executable version of a region (must verify and must
  /// have a PAD entry for ModelGuided launches). When a PAD entry exists,
  /// it is lowered into a CompiledRegionPlan here — the compile-time half
  /// of the launch-time "solve an equation" split — and any previous
  /// plan/decision cache for the name is invalidated. Safe to call
  /// concurrently with decide/launch: the plan compiles outside the shard
  /// lock and publishes as a fresh snapshot; in-flight decides finish on
  /// the snapshot they loaded.
  void registerRegion(ir::TargetRegion region);

  [[nodiscard]] bool hasRegion(const std::string& name) const;

  /// The compiled decision plan for a registered region; nullptr when the
  /// region has no PAD entry (or compiled plans are disabled). The pointer
  /// stays valid until the region is re-registered; callers that race
  /// re-registration must not cache it across launches.
  [[nodiscard]] const CompiledRegionPlan* plan(const std::string& name) const;

  /// Hit/miss/eviction counters of a region's decision cache (zeros when
  /// the region has no plan). Coherent mid-traffic: counters are atomic
  /// and hits + misses == lookups once callers quiesce.
  [[nodiscard]] DecisionCache::Stats decisionCacheStats(
      const std::string& name) const;

  /// Drops every region's memoized decisions (e.g. after reconfiguring the
  /// models out-of-band). One atomic epoch bump: caches lazily clear the
  /// first time a decide observes the new epoch. Counters survive.
  void invalidateDecisionCaches();

  /// Model evaluation only — the decide hot path without execution. Routes
  /// through the compiled plan and memoization cache exactly as launch()
  /// does; lock-free on the registry (one shard-snapshot load). This is
  /// the entry point a selector service (`oseld`) serves per request.
  [[nodiscard]] Decision decide(const std::string& regionName,
                                const symbolic::Bindings& bindings);

  /// Batched decide: fills out[i] with the decision for requests[i]
  /// (out.size() >= requests.size(); anything else is a
  /// support::PreconditionError). The streaming shape the `oseld` wire
  /// protocol batches into, amortizing everything scalar decide() pays per
  /// call: one registry-snapshot acquire per region group, one trace span
  /// and one `decide.batch_size` histogram sample per batch, one bulk
  /// decision-cache probe/back-fill (findMany/insertMany — a single lock
  /// acquisition per group) and SoA compiled-plan evaluation for the
  /// misses, using a preallocated thread_local BatchArena so the
  /// steady-state path does no per-request allocation or string hashing.
  ///
  /// Every decision is bit-identical to what scalar decide() would return
  /// for that (region, bindings) — including degenerate regions, unbound
  /// symbols, and non-finite predictions (pinned by the batch equivalence
  /// suite) — except Decision::overheadSeconds: cache-hit rows report the
  /// amortized per-decision batch cost instead of an individually measured
  /// wall time. Decide-only batches never touch the admission controller
  /// or the GPU health tracker; those gate launch(), not decisions.
  /// Thread-safe against concurrent decide/decideBatch/registerRegion/
  /// invalidateDecisionCaches callers, like decide().
  void decideBatch(std::span<const DecideRequest> requests,
                   std::span<Decision> out);

  /// Measures one execution of a region on a specific device (ground-truth
  /// simulation against `store`).
  [[nodiscard]] double measure(const std::string& regionName,
                               const symbolic::Bindings& bindings,
                               ir::ArrayStore& store, Device device) const;

  /// Launches under `policy`: admission control first (over the in-flight
  /// budget the launch is shed to the safe default device; a draining
  /// runtime refuses with support::PreconditionError), then selects (if
  /// applicable), executes on the chosen device through the launch guard
  /// (retry/backoff, CPU fallback, circuit breaker), logs, and returns the
  /// record. Device failures never escape while the CPU fallback path can
  /// still run; only a launch whose every path failed rethrows (as
  /// support::DeviceError), after logging.
  LaunchRecord launch(const std::string& regionName,
                      const symbolic::Bindings& bindings, ir::ArrayStore& store,
                      Policy policy);

  /// Stop admitting launches (they throw support::PreconditionError);
  /// in-flight launches finish. resume() re-opens intake.
  void drain();
  void resume();
  /// Blocks until every in-flight launch finished. drain() + quiesce() is
  /// the full shutdown barrier.
  void quiesce();
  /// Admission counters/state (in-flight, admitted, shed, refused,
  /// deadline misses, simulated-seconds ledger).
  [[nodiscard]] const AdmissionController& admission() const {
    return state_->admission;
  }

  /// The launch log. The reference is only stable while no launch is in
  /// flight — quiesce (or single-thread) before iterating; use
  /// logSnapshot() under concurrency.
  [[nodiscard]] const std::vector<LaunchRecord>& log() const {
    return state_->log;
  }
  /// Copy of the launch log, coherent under concurrent launches.
  [[nodiscard]] std::vector<LaunchRecord> logSnapshot() const;
  void clearLog();

  [[nodiscard]] const pad::AttributeDatabase& database() const {
    return database_;
  }
  [[nodiscard]] const OffloadSelector& selector() const { return selector_; }
  [[nodiscard]] const LaunchGuard& guard() const { return guard_; }
  /// GPU circuit-breaker state (quarantine countdown, fatal streak).
  [[nodiscard]] const DeviceHealthTracker& gpuHealth() const {
    return state_->health;
  }
  /// The attached observability session; nullptr when detached.
  [[nodiscard]] obs::TraceSession* traceSession() const { return trace_; }
  [[nodiscard]] std::size_t shardCount() const { return shardCount_; }

 private:
  /// One registered region's immutable state: the executable IR, the
  /// compiled decision plan (null on the interpreted path), and the
  /// region's decision cache (internally locked; shared so in-flight
  /// decides keep it alive across re-registration).
  struct RegionEntry {
    ir::TargetRegion region;
    std::shared_ptr<const CompiledRegionPlan> plan;
    std::shared_ptr<DecisionCache> cache;
  };

  /// Transparent hasher so DecideRequest's string_view names probe the
  /// registry without materializing a std::string per request.
  /// std::hash<std::string> and std::hash<std::string_view> are guaranteed
  /// to agree for equal content, so shard assignment stays consistent
  /// across key types.
  struct NameHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  /// Immutable name → entry map one shard publishes. Replaced wholesale
  /// (copy-on-write) under the shard's write mutex; readers load the
  /// shared_ptr atomically and never block.
  using RegistrySnapshot =
      std::unordered_map<std::string, std::shared_ptr<const RegionEntry>,
                         NameHash, std::equal_to<>>;

  struct Shard {
    /// Serializes writers (registration); readers never take it.
    std::mutex writeMutex;
    std::atomic<std::shared_ptr<const RegistrySnapshot>> snapshot;
  };

  /// Launch-to-launch mutable state, heap-held so TargetRuntime stays
  /// movable (mutexes/atomics aren't, and tests return runtimes by value).
  struct MutableState {
    MutableState(HealthPolicy healthPolicy, AdmissionPolicy admissionPolicy)
        : health(healthPolicy), admission(admissionPolicy) {}
    DeviceHealthTracker health;
    AdmissionController admission;
    /// Bumped by invalidateDecisionCaches(); caches clear lazily on the
    /// next decide that observes the new value.
    std::atomic<std::uint64_t> cacheEpoch{0};
    /// Runtime-wide cache traffic for the hit-ratio gauge (summing the
    /// per-cache counters on the hot path would race registration).
    std::atomic<std::uint64_t> cacheLookups{0};
    std::atomic<std::uint64_t> cacheHits{0};
    mutable std::mutex logMutex;
    std::vector<LaunchRecord> log;
  };

  /// Pointers into the trace session's metrics registry, resolved once at
  /// construction so hot-path updates never do a name lookup. All null when
  /// no session is attached.
  struct Instruments {
    obs::Counter* decisionsCompiled = nullptr;
    obs::Counter* decisionsInterpreted = nullptr;
    obs::Counter* decisionsCacheHit = nullptr;
    obs::Counter* decisionsDegenerate = nullptr;
    obs::Counter* launchesCpu = nullptr;
    obs::Counter* launchesGpu = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* quarantinesOpened = nullptr;
    obs::Counter* launchesShed = nullptr;
    obs::Counter* policyProbes = nullptr;
    obs::Counter* policyRefits = nullptr;
    obs::Gauge* cacheHitRatio = nullptr;
    obs::Histogram* decisionOverhead = nullptr;
    obs::Histogram* predictionError = nullptr;
    obs::Histogram* batchSize = nullptr;
  };

  void initInstruments();

  [[nodiscard]] std::size_t shardIndex(std::string_view name) const {
    return std::hash<std::string_view>{}(name) % shardCount_;
  }
  /// Lock-free registry read: one atomic snapshot load + map find. The
  /// returned entry stays alive (shared ownership) even if the region is
  /// re-registered mid-decide.
  [[nodiscard]] std::shared_ptr<const RegionEntry> findEntry(
      std::string_view name) const;

  /// Selector evaluation that never throws: a region missing from the PAD
  /// degrades to an invalid decision on the safe default device. Routes
  /// through the compiled plan (and its memoization cache) when available,
  /// recording the path taken in `record`.
  [[nodiscard]] Decision guardedDecision(const std::string& regionName,
                                         const symbolic::Bindings& bindings,
                                         LaunchRecord& record);
  /// One region group of a decideBatch() call: a single registry lookup,
  /// one bulk cache probe/back-fill, SoA evaluation for the misses, scalar
  /// fallbacks for degenerate rows. `group` lists the request indices (all
  /// naming the same region); tallies land in `counters` for one
  /// per-batch publish.
  void decideGroup(std::span<const DecideRequest> requests,
                   std::span<const std::uint32_t> group,
                   std::span<Decision> out, std::uint64_t epoch,
                   BatchArena& arena, BatchCounters& counters);
  /// Adds one decide()/decideBatch() call's cache tallies to the
  /// runtime-wide counters and, with a session attached, republishes the
  /// decision_cache.hit_ratio gauge from them.
  void publishCacheCounters(std::uint64_t lookups, std::uint64_t hits);
  /// measure() plus, when a trace session is attached, execution spans —
  /// GPU runs additionally get kernel/transfer sub-spans whose simulated
  /// fractions are projected onto the wall-clock span.
  [[nodiscard]] double measureTraced(const std::string& regionName,
                                     const symbolic::Bindings& bindings,
                                     ir::ArrayStore& store, Device device);
  /// Folds a guarded execution into `record` and the health tracker;
  /// traces retries and circuit-breaker transitions.
  void recordExecution(LaunchRecord& record, const GuardedExecution& execution);
  /// Charges the admission ledger, appends `record` to the log; with a
  /// session attached, emits the launch span, fallback instants, per-launch
  /// counters, and feeds the predicted-vs-actual tracker.
  void finalizeLaunch(LaunchRecord& record, std::int64_t startNs);
  /// The policy feedback channel: routes the launch's measured times into
  /// the drift tracker (when a session is attached) and the selection
  /// policy's observe() hook; a refit bumps the policy epoch (stale cached
  /// decisions lazily drop), resets the region's CUSUM state, and
  /// republishes the policy status. Skipped for shed/invalid launches.
  void feedPolicyFeedback(const LaunchRecord& record);
  /// Refit epilogue: counter + instant + drift reset + status push.
  void onPolicyRefit(const std::string& regionName);
  /// Pushes the policy's name/refit count/calibration factors into the
  /// trace session so stats/Prometheus renderings (and `oselctl stats`
  /// through them) show the live policy.
  void pushPolicyStatus();
  /// The combined cache epoch: the runtime's invalidation epoch plus the
  /// policy's state epoch. Both are monotonic, so the sum is — a policy
  /// refit invalidates every cached pre-refit decision exactly like
  /// invalidateDecisionCaches() does, lazily and without locks.
  [[nodiscard]] std::uint64_t effectiveCacheEpoch() const {
    return state_->cacheEpoch.load(std::memory_order_acquire) +
           policy_->stateEpoch();
  }

  pad::AttributeDatabase database_;
  OffloadSelector selector_;
  /// The selector's selection policy (never null; owned by the selector's
  /// config). Cached here so hot paths read one pointer, not a shared_ptr.
  policy::SelectionPolicy* policy_ = nullptr;
  /// policy_->cacheable(), latched at construction: a non-cacheable policy
  /// (EpsilonGreedy) bypasses the decision cache entirely.
  bool policyCacheable_ = true;
  cpusim::CpuSimulator cpuSim_;
  gpusim::GpuSimulator gpuSim_;
  LaunchGuard guard_;
  bool decisionCacheEnabled_ = true;
  std::size_t decisionCacheCapacity_ = 64;
  obs::TraceSession* trace_ = nullptr;
  Instruments instruments_;
  std::size_t shardCount_ = 1;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<MutableState> state_;
};

/// Renders launch records as CSV (header + one row per launch) — the
/// OMPT-flavoured observability hook §V.A gestures at: region, policy,
/// chosen device, predicted CPU/GPU seconds, measured seconds, decision
/// overhead, the fault-tolerance columns (attempts, fallback reason,
/// accounted backoff, quarantine state), the decision-path columns
/// (compiled vs interpreted, cache hit), and the admission `shed` flag.
/// Region names are RFC-4180 quoted (commas/quotes/newlines cannot shear a
/// row). Allocation-lean: reserves the output string once and streams rows
/// through a stack buffer instead of repeated operator+ concatenation.
[[nodiscard]] std::string renderLogCsv(std::span<const LaunchRecord> log);

}  // namespace osel::runtime
