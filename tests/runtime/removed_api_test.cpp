// The retired compatibility shims must STAY retired. The pre-redesign
// entry points — exact-signature decide(RegionAttributes, Bindings) /
// decide(CompiledRegionPlan, Bindings) overloads and the loose-argument
// TargetRuntime constructor — were [[deprecated]] forwarders for several
// releases and are now removed, as are the second (scalar) decide path's
// knobs and cache/plan entry points and the interpreted walk (a test-only
// oracle now). These are compile-time checks that the removed signatures
// no longer exist (launch admission control, the deferred column entry
// point and the parked cache back-fill included), plus behavioral pins that the unified API still decides
// for the old argument types: a CompiledRegionPlan through the implicit
// RegionHandle conversion, RegionAttributes through compile().
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "oracle/oracle.h"
#include "runtime/policy/policy.h"
#include "runtime/target_runtime.h"

namespace osel::runtime {
namespace {

using namespace osel::ir;

// The loose-argument constructor (database, SelectorConfig, CpuSimParams,
// int, GpuSimParams[, RuntimeOptions]) must not be constructible anymore —
// RuntimeOptions is the only configuration surface.
static_assert(!std::is_constructible_v<TargetRuntime, pad::AttributeDatabase,
                                       SelectorConfig, cpusim::CpuSimParams,
                                       int, gpusim::GpuSimParams>,
              "the loose-argument TargetRuntime constructor was removed; "
              "construct with TargetRuntime(database, RuntimeOptions)");
static_assert(!std::is_constructible_v<TargetRuntime, pad::AttributeDatabase,
                                       SelectorConfig, cpusim::CpuSimParams,
                                       int, gpusim::GpuSimParams,
                                       RuntimeOptions>,
              "the loose-argument TargetRuntime constructor was removed; "
              "construct with TargetRuntime(database, RuntimeOptions)");
static_assert(std::is_constructible_v<TargetRuntime, pad::AttributeDatabase,
                                      RuntimeOptions>,
              "the unified constructor must stay");

// Deciding has one compiled path: scalar decide() is a one-row region group,
// so the knobs that chose between equivalent paths and the scalar cache and
// plan entry points are gone. Templates keep each requires-expression a
// soft (false) check instead of a hard compile error.
template <typename Config>
constexpr bool kHasUseCompiledPlans =
    requires(Config config) { config.useCompiledPlans; };
template <typename Options>
constexpr bool kHasDecisionCacheEnabled =
    requires(Options options) { options.decisionCacheEnabled; };
template <typename Cache>
constexpr bool kHasScalarFind =
    requires(Cache cache, std::uint64_t mask,
             std::span<const std::int64_t> values, Decision& out) {
      cache.find(mask, values, out);
    };
template <typename Cache>
constexpr bool kHasScalarInsert =
    requires(Cache cache, std::uint64_t mask,
             std::span<const std::int64_t> values, const Decision& decision) {
      cache.insert(mask, values, decision);
    };
template <typename Plan>
constexpr bool kHasBindSlots =
    requires(const Plan plan, const symbolic::Bindings& bindings,
             std::span<std::int64_t> values, std::uint64_t& mask) {
      plan.bindSlots(bindings, values, mask);
    };
template <typename Plan>
constexpr bool kHasCompleteWorkloads =
    requires(const Plan plan, std::span<const std::int64_t> values,
             std::uint64_t mask, cpumodel::CpuWorkload& cpu,
             gpumodel::GpuWorkload& gpu) {
      plan.completeWorkloads(values, mask, cpu, gpu);
    };

static_assert(!kHasUseCompiledPlans<SelectorConfig>,
              "SelectorConfig::useCompiledPlans was removed: a region with a "
              "PAD entry always gets a compiled plan");
static_assert(!kHasDecisionCacheEnabled<RuntimeOptions>,
              "RuntimeOptions::decisionCacheEnabled was removed; set "
              "decisionCacheCapacity = 0 to disable memoization");
static_assert(!kHasScalarFind<DecisionCache>,
              "DecisionCache::find was removed; probe with a one-row findMany");
static_assert(!kHasScalarInsert<DecisionCache>,
              "DecisionCache::insert was removed; back-fill with a one-row "
              "insertMany");
static_assert(!kHasBindSlots<CompiledRegionPlan>,
              "CompiledRegionPlan::bindSlots was removed; bind one row with "
              "bindSlotsColumn");
static_assert(!kHasCompleteWorkloads<CompiledRegionPlan>,
              "CompiledRegionPlan::completeWorkloads was removed; complete "
              "one row with completeWorkloadsColumns");

// The registry is one map behind one lock, and so is calibrated's state:
// the shard-count knobs and their accessor are gone.
template <typename Options>
constexpr bool kHasRegistryShards =
    requires(Options options) { options.registryShards; };
template <typename Runtime>
constexpr bool kHasShardCount =
    requires(const Runtime& runtime) { runtime.shardCount(); };
template <typename Options>
constexpr bool kHasPolicyShards =
    requires(Options options) { options.shards; };

static_assert(!kHasRegistryShards<RuntimeOptions>,
              "RuntimeOptions::registryShards was removed: the registry is "
              "one map behind one mutex");
static_assert(!kHasShardCount<TargetRuntime>,
              "TargetRuntime::shardCount was removed with the registry "
              "shards");
static_assert(!kHasPolicyShards<policy::PolicyOptions>,
              "PolicyOptions::shards was removed; calibrated keeps its "
              "state in one map behind one mutex");
#if __has_include("runtime/policy/sharded.h")
constexpr bool kHasShardedHeader = true;
#else
constexpr bool kHasShardedHeader = false;
#endif
static_assert(!kHasShardedHeader,
              "runtime/policy/sharded.h (ShardedRegionMap) was removed; "
              "calibrated keeps its state in one map behind one mutex");

// One state-generation counter and one way to invalidate cached decisions:
// the policy's refits() is the cache epoch, so the duplicate stateEpoch()
// and the runtime's own invalidation bump are gone.
template <typename Policy>
constexpr bool kHasStateEpoch =
    requires(const Policy& selection) { selection.stateEpoch(); };
template <typename Runtime>
constexpr bool kHasInvalidateDecisionCaches =
    requires(Runtime& runtime) { runtime.invalidateDecisionCaches(); };

static_assert(!kHasStateEpoch<policy::SelectionPolicy>,
              "SelectionPolicy::stateEpoch was removed; refits() is the "
              "monotonic state generation and the cache epoch");
static_assert(!kHasInvalidateDecisionCaches<TargetRuntime>,
              "TargetRuntime::invalidateDecisionCaches was removed; a policy "
              "refit is what invalidates cached decisions");

// Only model-compare and calibrated ship: the hysteresis and epsilon-greedy
// knobs, the cache-bypass flag that existed for epsilon-greedy, the probe
// flag and the duplicate policy name are gone.
template <typename Options>
constexpr bool kHasHysteresisBand =
    requires(Options options) { options.hysteresisBand; };
template <typename Options>
constexpr bool kHasEpsilon = requires(Options options) { options.epsilon; };
template <typename Options>
constexpr bool kHasSeed = requires(Options options) { options.seed; };
template <typename Policy>
constexpr bool kHasCacheable =
    requires(const Policy& selection) { selection.cacheable(); };
template <typename Policy>
constexpr bool kHasPolicyName =
    requires(const Policy& selection) { selection.name(); };
template <typename Outcome>
constexpr bool kHasProbe = requires(Outcome outcome) { outcome.probe; };

static_assert(!kHasHysteresisBand<policy::PolicyOptions>,
              "PolicyOptions::hysteresisBand was removed with the "
              "hysteresis policy");
static_assert(!kHasEpsilon<policy::PolicyOptions>,
              "PolicyOptions::epsilon was removed with the epsilon-greedy "
              "policy");
static_assert(!kHasSeed<policy::PolicyOptions>,
              "PolicyOptions::seed was removed with the epsilon-greedy "
              "policy");
static_assert(!kHasCacheable<policy::SelectionPolicy>,
              "SelectionPolicy::cacheable was removed: every shipped policy's "
              "decisions are memoizable");
static_assert(!kHasPolicyName<policy::SelectionPolicy>,
              "SelectionPolicy::name was removed; use toString(kind())");
static_assert(!kHasProbe<policy::PolicyChoice>,
              "PolicyChoice::probe was removed with the epsilon-greedy "
              "policy");
static_assert(!kHasProbe<Decision>,
              "Decision::probe was removed with the epsilon-greedy policy");

// Launches have no admission control: every launch is decided and run, so
// the in-flight budget, the deadline ledger, drain/resume/quiesce and the
// shed telemetry are gone (oseld sheds at its connection queue instead).
template <typename Options>
constexpr bool kHasAdmission =
    requires(Options options) { options.admission; };
template <typename Record>
constexpr bool kHasShed = requires(Record record) { record.shed; };
template <typename Record>
constexpr bool kHasDeadlineMissed =
    requires(Record record) { record.deadlineMissed; };
template <typename Reason>
constexpr bool kHasShedReason = requires { Reason::Shed; };
template <typename Runtime>
constexpr bool kHasDrain = requires(Runtime& runtime) { runtime.drain(); };
template <typename Runtime>
constexpr bool kHasResume = requires(Runtime& runtime) { runtime.resume(); };
template <typename Runtime>
constexpr bool kHasQuiesce = requires(Runtime& runtime) { runtime.quiesce(); };
template <typename Runtime>
constexpr bool kHasAdmissionAccessor =
    requires(const Runtime& runtime) { runtime.admission(); };

static_assert(!kHasAdmission<RuntimeOptions>,
              "RuntimeOptions::admission was removed with the launch "
              "admission controller");
static_assert(!kHasShed<LaunchRecord>,
              "LaunchRecord::shed was removed: no launch is shed");
static_assert(!kHasDeadlineMissed<LaunchRecord>,
              "LaunchRecord's deadline-miss flag was removed with the "
              "deadline ledger");
static_assert(!kHasShedReason<FallbackReason>,
              "the Shed fallback reason was removed: no launch is shed");
static_assert(!kHasDrain<TargetRuntime>,
              "TargetRuntime::drain was removed with the admission "
              "controller");
static_assert(!kHasResume<TargetRuntime>,
              "TargetRuntime::resume was removed with the admission "
              "controller");
static_assert(!kHasQuiesce<TargetRuntime>,
              "TargetRuntime::quiesce was removed with the admission "
              "controller");
static_assert(!kHasAdmissionAccessor<TargetRuntime>,
              "TargetRuntime::admission was removed with the admission "
              "controller");
#if __has_include("runtime/admission.h")
constexpr bool kHasAdmissionHeader = true;
#else
constexpr bool kHasAdmissionHeader = false;
#endif
static_assert(!kHasAdmissionHeader,
              "runtime/admission.h (the launch admission controller) was "
              "removed");

// decideColumns is the one column entry point: it answers and hands back
// its record tail, which a caller that discards the handle runs at once.
template <typename Runtime>
constexpr bool kHasDecideColumnsDeferred =
    requires(Runtime& runtime, std::string_view region,
             std::span<const std::string_view> names, const char* values,
             std::size_t rows, std::span<Decision> out) {
      runtime.decideColumnsDeferred(region, names, values, rows, out);
    };

static_assert(!kHasDecideColumnsDeferred<TargetRuntime>,
              "the deferred column entry point was folded into "
              "decideColumns, which returns the PendingRecord");
static_assert(
    std::is_same_v<decltype(std::declval<TargetRuntime&>().decideColumns(
                       std::string_view{}, std::span<const std::string_view>{},
                       nullptr, std::size_t{}, std::span<Decision>{})),
                   PendingRecord>,
    "decideColumns returns its record tail");

// decideColumns does not memoize, and a memoizing call inserts its fresh
// rows inline, so no decide call leaves a cache back-fill pending.
template <typename Arena>
constexpr bool kHasParkedBackfill =
    requires(Arena& arena) { arena.backfill(); } ||
    requires(Arena& arena) { arena.backfillCache; } ||
    requires(Arena& arena) { arena.backfillKeys; } ||
    requires(Arena& arena) { arena.backfillEpoch; };

static_assert(!kHasParkedBackfill<BatchArena>,
              "BatchArena's parked cache back-fill was removed; a record "
              "tail is the explain publish alone");

// The library decides only through compiled plans: the interpreted walk
// (a handle over raw PAD attributes, the selector's workload builders)
// lives on as the test oracle in tests/oracle.
template <typename Selector>
constexpr bool kHasCpuWorkload =
    requires(const Selector selector, const pad::RegionAttributes& attr,
             const symbolic::Bindings& bindings) {
      selector.cpuWorkload(attr, bindings);
    };
template <typename Selector>
constexpr bool kHasGpuWorkload =
    requires(const Selector selector, const pad::RegionAttributes& attr,
             const symbolic::Bindings& bindings) {
      selector.gpuWorkload(attr, bindings);
    };

static_assert(!std::is_constructible_v<RegionHandle,
                                       const pad::RegionAttributes&>,
              "RegionHandle over raw PAD attributes was removed; decide "
              "through OffloadSelector::compile(attr)");
static_assert(!kHasCpuWorkload<OffloadSelector>,
              "OffloadSelector::cpuWorkload was removed; the interpreted "
              "walk is the test oracle's oracle::cpuWorkload");
static_assert(!kHasGpuWorkload<OffloadSelector>,
              "OffloadSelector::gpuWorkload was removed; the interpreted "
              "walk is the test oracle's oracle::gpuWorkload");

TargetRegion streamKernel() {
  return RegionBuilder("stream")
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

pad::AttributeDatabase makeDatabase() {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const std::array<TargetRegion, 1> regions{streamKernel()};
  return compiler::compileAll(regions, models);
}

void expectSameDecision(const Decision& a, const Decision& b) {
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.cpu.seconds, b.cpu.seconds);
  EXPECT_DOUBLE_EQ(a.gpu.totalSeconds, b.gpu.totalSeconds);
}

// Old call sites that passed RegionAttributes now compile a plan first.
// Pin that this decides identically to the interpreted walk they used to
// reach.
TEST(RemovedApi, AttributesDecideThroughACompiledPlan) {
  const pad::AttributeDatabase db = makeDatabase();
  const OffloadSelector selector{SelectorConfig{}};
  const pad::RegionAttributes* attr = db.find("stream");
  ASSERT_NE(attr, nullptr);
  const symbolic::Bindings bindings{{"n", 96}};
  expectSameDecision(selector.decide(selector.compile(*attr), bindings),
                     oracle::decide(selector, *attr, bindings));
}

// A CompiledRegionPlan passed by value still compiles — through the
// implicit RegionHandle conversion into the unified overload, not a shim.
// Pin that the conversion path decides identically to an explicit
// RegionHandle.
TEST(RemovedApi, CompiledPlanConvertsIntoUnifiedDecide) {
  const pad::AttributeDatabase db = makeDatabase();
  const OffloadSelector selector{SelectorConfig{}};
  const pad::RegionAttributes* attr = db.find("stream");
  ASSERT_NE(attr, nullptr);
  const CompiledRegionPlan plan = selector.compile(*attr);
  const symbolic::Bindings bindings{{"n", 96}};
  expectSameDecision(selector.decide(plan, bindings),
                     selector.decide(RegionHandle(plan), bindings));
}

// What the loose-argument constructor used to assemble is expressible (and
// equivalent) through RuntimeOptions alone.
TEST(RemovedApi, RuntimeOptionsCoversTheLooseArguments) {
  SelectorConfig selectorConfig;
  selectorConfig.cpuThreads = 160;

  RuntimeOptions options;
  options.selector = selectorConfig;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.cpuSimThreads = 160;
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  TargetRuntime runtime(makeDatabase(), options);
  runtime.registerRegion(streamKernel());

  EXPECT_EQ(runtime.selector().config().cpuThreads, 160);
  const symbolic::Bindings bindings{{"n", 128}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_TRUE(record.decision.valid);
}

}  // namespace
}  // namespace osel::runtime
