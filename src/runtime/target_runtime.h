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
// Deciding has one compiled path and one binding form. Registration lowers
// every region that has a PAD entry into a CompiledRegionPlan with its own
// decision cache, and decisions are made per region group by one routine:
// bind the group's rows into SoA columns once, complete and evaluate every
// row the cache does not serve. decideBatch() groups its requests by
// region; decide() and launch() run a one-row group. Both bind each row's
// Bindings map (nothing past that binder sees the map), and both memoize: a
// group probes its region's cache in bulk first and inserts its fresh rows
// in bulk after, for the in-process relaunch loop the cache exists for. decideColumns() takes one group already laid out as wire columns
// (every oseld decide frame), binds the columns and decides every row
// afresh: on miss-heavy service traffic the cache costs each row a probe
// and an insert for a hit it almost never gets (the trade-off, measured
// both ways, is docs/PERFORMANCE.md §11). Every
// fresh row is decided in place, straight into the caller's output row,
// with no clock read of its own: every row a call serves reports the call's
// wall time divided by its rows. With a trace session attached, the call's
// fresh decisions publish their explain records together, after that
// stamp: one ring lock and one timestamp per call. That explain publish is
// the call's record tail: decide() and decideBatch() run it before they
// return; decideColumns() answers first and hands the tail back as a
// PendingRecord, so oseld sends the reply before the tail runs, and an
// in-process caller that drops the handle runs it at the end of the
// statement (runtime/batch.h). A region that has a PAD
// entry but is not registered yet decides through a plan compiled for that
// group (no cache); a region with no PAD entry, an unusable plan and a row
// missing a required symbol degrade to the safe default with their
// diagnostic.
//
// Concurrency: the runtime is safe for concurrent registerRegion / decide /
// launch callers (the ROADMAP's `oseld` service needs many). The registry is
// one name -> entry map behind one mutex. A lookup holds that lock only for
// the find and one shared_ptr copy, so a decide finishes on the entry it
// found even if the region is re-registered meanwhile. Registration
// verifies and compiles outside the lock, swaps the new entry into the map
// under it, and frees the replaced entry after the unlock. Per-region
// decision caches are internally locked (the per-region caches are the lock
// stripes) and validated by one epoch, the selection policy's refits(),
// read once per memoizing decide call, so a refit drops cached decisions
// lazily.
// Launch-log appends are mutex-guarded, and the health tracker is atomic.
// See the "Thread-safety contract" section of docs/ROBUSTNESS.md for what
// callers may rely on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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
#include "runtime/batch.h"
#include "runtime/compiled_plan.h"
#include "runtime/decision_cache.h"
#include "runtime/launch_guard.h"
#include "runtime/selector.h"

namespace osel::runtime {

/// Launch-time device-selection policy.
enum class Policy { AlwaysCpu, AlwaysGpu, ModelGuided, Oracle };

/// A view of a string literal, so `.data()` is a static NUL-terminated
/// string (usable as a trace category).
[[nodiscard]] std::string_view toString(Policy policy);

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
  /// region has no PAD entry, so no plan).
  bool decisionCompiled = false;
  /// True when the decision was served from the memoization cache.
  bool decisionCacheHit = false;
};

/// Everything configurable about a TargetRuntime, in one aggregate: the
/// selector's machine configuration, both ground-truth simulators,
/// fault-tolerance policies, decision memoization, and the optional
/// observability session. Field order is chosen so pre-existing designated
/// initializers (.retry, .health, .decisionCacheCapacity, ...) keep
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
  /// Entries of each region's decision cache (keyed by the slot values a
  /// decide binds); 0 disables memoization. Only decide(), decideBatch()
  /// and launch() memoize; decideColumns() never does. The constructor
  /// rejects a capacity above DecisionCache::kMaxCapacity with
  /// PreconditionError.
  std::size_t decisionCacheCapacity = 64;
  /// Observability session the runtime emits spans/events/metrics into.
  /// Not owned; must outlive the runtime. nullptr (the default) disables
  /// all observability work: every hook is one pointer test, no
  /// allocations (pinned by test and bench).
  obs::TraceSession* trace = nullptr;
};

/// The runtime: device simulators + PAD + selector + launch guard + health
/// tracker + launch log.
class TargetRuntime {
 public:
  explicit TargetRuntime(pad::AttributeDatabase database,
                         RuntimeOptions options = {});

  /// Registers the executable version of a region (must verify and must
  /// have a PAD entry for ModelGuided launches). When a PAD entry exists,
  /// it is lowered into a CompiledRegionPlan here — the compile-time half
  /// of the launch-time "solve an equation" split — and any previous
  /// plan/decision cache for the name is invalidated. Safe to call
  /// concurrently with decide/launch: the plan compiles outside the
  /// registry lock, which is held only to swap the new entry in; in-flight
  /// decides finish on the entry they found.
  void registerRegion(ir::TargetRegion region);

  [[nodiscard]] bool hasRegion(const std::string& name) const;

  /// The compiled decision plan for a registered region; nullptr when the
  /// region has no PAD entry. The pointer stays valid until the region is
  /// re-registered; callers that race re-registration must not cache it
  /// across launches.
  [[nodiscard]] const CompiledRegionPlan* plan(const std::string& name) const;

  /// Hit/miss/eviction counters of a region's decision cache (zeros when
  /// the region has no plan). Only decide(), decideBatch() and launch()
  /// move them; decideColumns() never does. Coherent mid-traffic: counters
  /// are atomic and hits + misses == lookups once callers quiesce.
  [[nodiscard]] DecisionCache::Stats decisionCacheStats(
      const std::string& name) const;

  /// Model evaluation only — the decide hot path without execution: a
  /// one-row region group, exactly as launch() decides; one short registry
  /// lock for the lookup. Emits one `decide` span and one
  /// `decision.overhead_s` sample per call, as every one-row call does.
  /// overheadSeconds is the wall time of the call, for a cache hit and a
  /// fresh decision alike, and so is the overhead of the explain record a
  /// fresh decision publishes.
  [[nodiscard]] Decision decide(const std::string& regionName,
                                const symbolic::Bindings& bindings);

  /// Batched decide: fills out[i] with the decision for requests[i]
  /// (out.size() >= requests.size() and every request's bindings non-null;
  /// anything else is a support::PreconditionError, raised before any row
  /// is decided). The streaming shape the `oseld` wire protocol batches
  /// into, amortizing everything scalar decide() pays per call: one
  /// registry lookup per region group, one trace span (a one-request batch
  /// records `decide`, any larger one `decide.batch` and a
  /// `decide.batch_size` histogram sample), one bulk decision-cache
  /// probe/back-fill (a single lock acquisition per group)
  /// and SoA compiled-plan evaluation for the misses, using a preallocated
  /// thread_local BatchArena so the steady-state path does no per-request
  /// allocation or string hashing.
  ///
  /// Every decision is bit-identical to what scalar decide() would return
  /// for that (region, bindings) — including degenerate regions, unbound
  /// symbols, and non-finite predictions (pinned by the batch equivalence
  /// suite) — except Decision::overheadSeconds: every row, cache hit or
  /// fresh, reports the call's wall time divided by requests.size(), and
  /// every explain record the call publishes carries that same value.
  ///
  /// Output rows are overwritten, not merged: decide* write every field of
  /// every row they fill, so `out` may be reused across calls without
  /// re-initialising it (oseld keeps one reply buffer per connection).
  /// Decide-only batches never touch the GPU health tracker; it gates
  /// launch(), not decisions.
  /// Thread-safe against concurrent decide/decideBatch/registerRegion/
  /// launch callers, like decide().
  void decideBatch(std::span<const DecideRequest> requests,
                   std::span<Decision> out);

  /// decideBatch() for `rows` requests that all name `region` and bind the
  /// same symbols, given as columns rather than per-row maps — the layout
  /// of an oseld DecideBatch frame, which the server passes straight
  /// through (and of its DecideRequest frames, as one-row frames). `values`
  /// holds slotNames.size() * rows little-endian int64s, slot-major
  /// (slotNames[i]'s column starts at int64 index i * rows), with no
  /// alignment guarantee. A duplicate name binds its last occurrence and
  /// a name the region does not read is ignored, as when the names are
  /// assigned into one Bindings map per row. Fills out[0, rows)
  /// (out.size() >= rows, else support::PreconditionError).
  ///
  /// Each plan slot's column is copied into the group's SoA block once, and
  /// the frame runs decideBatch()'s group routine, whatever the region: a
  /// registered plan, a plan compiled from a PAD entry, no PAD entry, an
  /// unusable plan or a required symbol missing. It does not memoize: every
  /// row is decided afresh, the region's decision cache is neither probed
  /// nor filled, and the runtime-wide hit ratio does not move. Each
  /// decision is bit-identical to decideBatch() over per-row maps
  /// (overheadSeconds aside: the call's wall time divided by `rows`, on
  /// every row and explain record), and with every row fresh its counters,
  /// span and explain records are those of a decideBatch() that found
  /// nothing cached. Like decideBatch(), it overwrites every field of every
  /// row it fills.
  ///
  /// The call is split into its answer and its record tail — how oseld
  /// decides every DecideRequest and DecideBatch frame. It returns once
  /// out[0, rows) holds the decisions, the span, counters and overhead
  /// sample are recorded and the explain records are filled; the explain
  /// publish stays pending in the returned PendingRecord, which runs it on
  /// run() or when it is destroyed. A caller that discards the handle runs
  /// the tail at the end of the full-expression, so the call has recorded
  /// by the next statement; oseld holds it until the reply is sent.
  /// overheadSeconds (rows and explain records) covers the answer phase
  /// only, and the records are stamped when they are published. The
  /// thread's next decide call runs a pending tail first, whatever the
  /// runtime.
  PendingRecord decideColumns(std::string_view region,
                              std::span<const std::string_view> slotNames,
                              const char* values, std::size_t rows,
                              std::span<Decision> out);

  /// Measures one execution of a region on a specific device (ground-truth
  /// simulation against `store`).
  [[nodiscard]] double measure(const std::string& regionName,
                               const symbolic::Bindings& bindings,
                               ir::ArrayStore& store, Device device) const;

  /// Launches under `policy`: selects (if applicable), executes on the
  /// chosen device through the launch guard (retry/backoff, CPU fallback,
  /// circuit breaker), logs, and returns the record. Device failures never
  /// escape while the CPU fallback path can still run; only a launch whose
  /// every path failed rethrows (as support::DeviceError), after logging.
  LaunchRecord launch(const std::string& regionName,
                      const symbolic::Bindings& bindings, ir::ArrayStore& store,
                      Policy policy);

  /// The launch log. The reference is stable once the launching threads
  /// have joined; use logSnapshot() otherwise.
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

 private:
  /// One registered region's immutable state: the executable IR, the
  /// compiled decision plan (null when the region has no PAD entry), and the
  /// region's decision cache (internally locked; shared so in-flight
  /// decides keep it alive across re-registration).
  struct RegionEntry {
    ir::TargetRegion region;
    std::shared_ptr<const CompiledRegionPlan> plan;
    std::shared_ptr<DecisionCache> cache;
  };

  /// Transparent hasher so DecideRequest's string_view names probe the
  /// registry without materializing a std::string per request.
  struct NameHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  /// Launch-to-launch mutable state, heap-held so TargetRuntime stays
  /// movable (mutexes/atomics aren't, and tests return runtimes by value).
  struct MutableState {
    explicit MutableState(HealthPolicy healthPolicy) : health(healthPolicy) {}
    DeviceHealthTracker health;
    /// Runtime-wide cache traffic for the hit-ratio gauge (summing the
    /// per-cache counters on the hot path would race registration).
    std::atomic<std::uint64_t> cacheLookups{0};
    std::atomic<std::uint64_t> cacheHits{0};
    mutable std::mutex logMutex;
    std::vector<LaunchRecord> log;
    /// The region registry. registryMutex guards the map only: entries are
    /// immutable, and lookups copy the shared_ptr out before unlocking.
    mutable std::mutex registryMutex;
    std::unordered_map<std::string, std::shared_ptr<const RegionEntry>,
                       NameHash, std::equal_to<>>
        registry;
  };

  /// Pointers into the trace session's metrics registry, resolved once at
  /// construction so hot-path updates never do a name lookup. All null when
  /// no session is attached.
  struct Instruments {
    obs::Counter* decisionsCompiled = nullptr;
    obs::Counter* decisionsCacheHit = nullptr;
    obs::Counter* decisionsDegenerate = nullptr;
    obs::Counter* launchesCpu = nullptr;
    obs::Counter* launchesGpu = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* quarantinesOpened = nullptr;
    obs::Counter* policyRefits = nullptr;
    obs::Gauge* cacheHitRatio = nullptr;
    obs::Histogram* decisionOverhead = nullptr;
    obs::Histogram* predictionError = nullptr;
    obs::Histogram* batchSize = nullptr;
  };

  void initInstruments();

  /// Registry read: find and copy the entry's shared_ptr under the registry
  /// lock. The returned entry stays alive (shared ownership) even if the
  /// region is re-registered mid-decide.
  [[nodiscard]] std::shared_ptr<const RegionEntry> findEntry(
      std::string_view name) const;

  /// decide() and launch()'s model evaluation: a one-request
  /// decideRequests() call, whose path (compiled, cache hit) lands in
  /// `record`. Never throws: a region missing from the PAD degrades to an
  /// invalid decision on the safe default device.
  [[nodiscard]] Decision guardedDecision(const std::string& regionName,
                                         const symbolic::Bindings& bindings,
                                         LaunchRecord& record);
  /// decideBatch() after its argument checks, and the one-row call of
  /// decide()/launch(): groups the requests by region and runs each group
  /// through decideGroup(), binding each row's map with bindSlotsColumn(),
  /// then finishCall(), and runs the call's record tail before it returns.
  /// Returns the call's tallies.
  BatchCounters decideRequests(std::span<const DecideRequest> requests,
                               std::span<Decision> out);
  /// The one group routine every entry point runs, for the rows `group`
  /// lists (row r decides into out[group[r]], all naming `region`): a
  /// single registry lookup resolves the region's plan — the registered
  /// plan with its cache, a cacheless plan compiled for the group from a
  /// PAD entry, or none (every row degrades, no PAD entry). A usable plan's
  /// rows bind once into the arena's SoA columns through
  /// `bind(plan)`, which fills arena.columns, masks and bindOk for rows
  /// [0, group.size()); then SoA completion and the selector's untimed
  /// in-place tail (OffloadSelector::decideInto) for every row the cache
  /// does not serve — including the rows the plan cannot complete (an
  /// unusable plan, an unbindable row), which raise the plan's diagnostic
  /// from their column row. A memoizing call passes the `cacheEpoch` it
  /// read: the group then probes the region's cache in bulk before it
  /// evaluates and inserts its fresh rows in bulk after, one lock each.
  /// Without one (decideColumns) the cache sees no traffic. Tallies land in
  /// `counters`; with a session attached, fresh rows claim explain records
  /// from the arena for the call to publish. Defined in target_runtime.cpp,
  /// its only user.
  template <typename Bind>
  void decideGroup(std::string_view region,
                   std::span<const std::uint32_t> group,
                   std::span<Decision> out, Bind&& bind,
                   std::optional<std::uint64_t> cacheEpoch, BatchArena& arena,
                   BatchCounters& counters);
  /// The one tail of every decide call over `n` rows in `groups` region
  /// groups: stamps every row of out[0, n) with the call's amortized cost,
  /// parks the explain publish (records stamped with that cost, one ring
  /// lock and one clock read) in the arena for the caller to run;
  /// publishes the cache and path counters (and the
  /// decision_cache.hit_ratio gauge, runtime-wide) and, with a session
  /// attached, the overhead sample and the call's span — `decide` (tagged
  /// compiled, cache_hit or degenerate) for a one-row call, `decide.batch`
  /// plus a batch-size sample otherwise.
  void finishCall(std::string_view label, std::size_t n, std::size_t groups,
                  std::int64_t startNs,
                  std::chrono::steady_clock::time_point wallStart,
                  BatchArena& arena, const BatchCounters& counters,
                  std::span<Decision> out);
  /// measure() plus, when a trace session is attached, execution spans —
  /// GPU runs additionally get kernel/transfer sub-spans whose simulated
  /// fractions are projected onto the wall-clock span.
  [[nodiscard]] double measureTraced(const std::string& regionName,
                                     const symbolic::Bindings& bindings,
                                     ir::ArrayStore& store, Device device);
  /// Folds a guarded execution into `record` and the health tracker;
  /// traces retries and circuit-breaker transitions.
  void recordExecution(LaunchRecord& record, const GuardedExecution& execution);
  /// Appends `record` to the log; with a session attached, emits the launch
  /// span, fallback instants, per-launch counters, and feeds the
  /// predicted-vs-actual tracker.
  void finalizeLaunch(const LaunchRecord& record, std::int64_t startNs);
  /// The policy feedback channel: routes the launch's measured times into
  /// the drift tracker (when a session is attached) and the selection
  /// policy's observe() hook; a refit bumps the policy's refits(), the
  /// cache epoch (stale cached decisions lazily drop), resets the region's
  /// CUSUM state, and republishes the policy status. Skipped for launches
  /// with an invalid decision.
  void feedPolicyFeedback(const LaunchRecord& record);
  /// Refit epilogue: counter + instant + drift reset + status push.
  void onPolicyRefit(const std::string& regionName);
  /// Pushes the policy's name/refit count/calibration factors into the
  /// trace session so stats/Prometheus renderings (and `oselctl stats`
  /// through them) show the live policy.
  void pushPolicyStatus();

  pad::AttributeDatabase database_;
  OffloadSelector selector_;
  /// The selector's selection policy (never null; owned by the selector's
  /// config). Cached here so hot paths read one pointer, not a shared_ptr.
  policy::SelectionPolicy* policy_ = nullptr;
  cpusim::CpuSimulator cpuSim_;
  gpusim::GpuSimulator gpuSim_;
  LaunchGuard guard_;
  std::size_t decisionCacheCapacity_ = 64;
  obs::TraceSession* trace_ = nullptr;
  Instruments instruments_;
  std::unique_ptr<MutableState> state_;
};

/// Renders launch records as CSV (header + one row per launch) — the
/// OMPT-flavoured observability hook §V.A gestures at: region, policy,
/// chosen device, predicted CPU/GPU seconds, measured seconds, decision
/// overhead, the fault-tolerance columns (attempts, fallback reason,
/// accounted backoff, quarantine state), the decision-path columns
/// (compiled vs degenerate, cache hit): 16 columns.
/// Region names are RFC-4180 quoted (commas/quotes/newlines cannot shear a
/// row). Allocation-lean: reserves the output string once and streams rows
/// through a stack buffer instead of repeated operator+ concatenation.
[[nodiscard]] std::string renderLogCsv(std::span<const LaunchRecord> log);

}  // namespace osel::runtime
