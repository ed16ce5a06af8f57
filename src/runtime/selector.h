// osel/runtime/selector.h — launch-time device selection (paper §IV.D).
//
// At a target region's launch point the runtime pulls the region's static
// features from the Program Attribute Database, binds the runtime values
// (array extents, trip counts), evaluates both analytical models, and picks
// the device with the lower predicted time. Because both models are closed
// formulas, the decision is "equivalent to solving an equation" — the
// measured overhead is exposed so the negligible-overhead claim can be
// checked (bench/micro_decision_overhead).
//
// The selector decides only through compiled plans (runtime/compiled_plan.h)
// and writes every decision in place. decideInto() takes a column row the
// runtime's SoA group already bound and completed and runs the one untimed
// tail — both model predictions, the explain fill, and the policy choice; a
// row the plan cannot complete degrades there to the safe default with the
// plan's own diagnostic. decideMissingInto() degrades a row of a region
// with no PAD entry. decide(), the one-off entry, binds its map into a
// one-row slot vector, takes the same tail and is the only one that reads
// the clock. The interpreted walk over PAD expressions is a test-only
// oracle (tests/oracle) that CompiledPlanEquivalence.* diffs against.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "obs/explain.h"
#include "pad/attribute_db.h"
#include "runtime/compiled_plan.h"
#include "runtime/device.h"
#include "runtime/policy/policy.h"

namespace osel::runtime {

/// Host/device configuration the selector evaluates against.
struct SelectorConfig {
  cpumodel::CpuModelParams cpuParams = cpumodel::CpuModelParams::power9();
  int cpuThreads = 160;
  gpumodel::GpuDeviceParams gpuParams = gpumodel::GpuDeviceParams::teslaV100();
  /// Which MCA host-model entry of the PAD supplies Machine_cycles_per_iter.
  std::string mcaModelName = "POWER9";
  /// Device a degraded decision resolves to when the models cannot be
  /// trusted (missing PAD attributes, non-finite predictions, evaluation
  /// exceptions). The CPU is the OpenMP host-fallback contract's
  /// always-available path, so it is the default.
  Device safeDefaultDevice = Device::Cpu;
  /// The selection policy resolving healthy prediction pairs into a device
  /// (runtime/policy/policy.h) through one virtual choose() per fresh row.
  /// nullptr (the default) means ModelCompare — the paper's rule. Shared:
  /// copies of this config (and the selector/runtime built from them) share
  /// one policy instance, so calibration learned on the launch path steers
  /// every decide path.
  std::shared_ptr<policy::SelectionPolicy> policy;
};

/// The outcome of one selection.
struct Decision {
  Device device = Device::Cpu;
  /// False when the models could not produce a trustworthy comparison
  /// (missing PAD attributes, NaN/non-finite/non-positive predicted times,
  /// model-evaluation exception); `device` then holds the configured safe
  /// default and `diagnostic` says why.
  bool valid = true;
  std::string diagnostic;
  cpumodel::CpuPrediction cpu;
  gpumodel::GpuPrediction gpu;
  /// Decision overhead in seconds. OffloadSelector::decide() reports its
  /// own wall time; everything TargetRuntime serves (decide, launch,
  /// decideBatch, decideColumns) reports the call's wall time divided by
  /// the rows it served, cache hits and fresh rows alike; decideInto() and
  /// decideFromWorkloads() leave 0.
  double overheadSeconds = 0.0;

  /// Predicted GPU-offloading speedup (cpu time / gpu time). NaN when the
  /// predictions are not comparable (non-finite or non-positive GPU time) —
  /// callers must not treat a degraded prediction as "speedup 0".
  [[nodiscard]] double predictedSpeedup() const {
    if (!std::isfinite(cpu.seconds) || !std::isfinite(gpu.totalSeconds) ||
        gpu.totalSeconds <= 0.0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return cpu.seconds / gpu.totalSeconds;
  }
};

/// A lightweight, non-owning view naming the region a decide() call is
/// about: either a CompiledRegionPlan (the region's PAD entry lowered at
/// registration), or a missing region — no PAD entry; decide() degrades to
/// the safe default device with a PadLookupError diagnostic. Handles are
/// views: the referenced plan (and, for missing(), the name/suggestion
/// storage) must outlive the decide() call.
class RegionHandle {
 public:
  /*implicit*/ RegionHandle(const CompiledRegionPlan& plan)
      : plan_(&plan), name_(plan.attributes().regionName) {}

  /// Handle for a region absent from the PAD. `suggestion` is the nearest
  /// known region name (may be empty); it feeds the diagnostic.
  [[nodiscard]] static RegionHandle missing(std::string_view regionName,
                                            std::string_view suggestion = {}) {
    RegionHandle handle;
    handle.name_ = regionName;
    handle.suggestion_ = suggestion;
    return handle;
  }

  /// Compiled plan; nullptr for a missing region.
  [[nodiscard]] const CompiledRegionPlan* plan() const { return plan_; }
  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] std::string_view suggestion() const { return suggestion_; }

 private:
  RegionHandle() = default;

  const CompiledRegionPlan* plan_ = nullptr;
  std::string_view name_;
  std::string_view suggestion_;
};

/// Stateless selector bound to one machine configuration.
class OffloadSelector {
 public:
  explicit OffloadSelector(SelectorConfig config);

  /// THE selection entry point: evaluates both models for the region the
  /// handle names and picks the faster device.
  ///   * handle wraps a CompiledRegionPlan: `bindings` bind into a
  ///     one-row slot vector, which completes and takes decideInto()'s
  ///     tail. A row the plan cannot complete (unbound required symbols, an
  ///     unusable plan) degrades with the diagnostic
  ///     CompiledRegionPlan::requireCompletable throws, byte-identical to
  ///     the interpreted oracle's,
  ///   * handle is missing(): degrades to the configured safe default
  ///     device, valid == false, with a PadLookupError diagnostic.
  /// Guardrailed: model/workload-construction failures and degenerate
  /// (NaN/non-finite/non-positive) predictions never escape — the decision
  /// degrades to the safe default with a diagnostic, so ModelGuided
  /// launches behave like AlwaysCpu instead of crashing.
  ///
  /// `explain`, when non-null, is the forensics sink: the call fills it
  /// with the full model-term breakdown (obs/explain.h) of this decision,
  /// term-identical to the oracle's record (pinned by the compiled-plan
  /// equivalence suite). Filling never allocates.
  ///
  /// The one-off entry point, so it times itself: overheadSeconds (and the
  /// explain record's) is this call's wall time; 0 for a missing region.
  [[nodiscard]] Decision decide(const RegionHandle& region,
                                const symbolic::Bindings& bindings,
                                obs::DecisionExplain* explain = nullptr) const;

  /// The shared decide tail — the decide fault point, both model
  /// predictions, explain fill, choice resolution, degradation to the safe
  /// default on exception — applied to a workload pair completed outside
  /// the selector (the runtime's SoA group evaluator,
  /// CompiledRegionPlan::completeWorkloadsColumns). `plan` names the
  /// region. `incomplete`, when non-null, is the column row `cpu`/`gpu`
  /// came from, for a row the plan may not complete (its bind left a
  /// required symbol unbound, or the plan is unusable): after the fault
  /// point, plan.requireCompletable(*incomplete) raises the row's
  /// diagnostic and the row degrades; when it returns, the row decides from
  /// `cpu`/`gpu` like any other (an unusable plan never reads them). Writes
  /// the decision in place: every field of `out` is overwritten, so `out`
  /// may hold any earlier decision, and `explain` (when non-null) gets every
  /// term and header field without being cleared first. Reads no clock:
  /// out.overheadSeconds and explain->overheadSeconds are 0, for the caller
  /// to stamp. Given workloads equal to what decide(plan, bindings) would
  /// build, `out` is bit-identical to decide()'s result except
  /// overheadSeconds (excluded from the equivalence contract).
  void decideInto(const CompiledRegionPlan& plan,
                  const cpumodel::CpuWorkload& cpu,
                  const gpumodel::GpuWorkload& gpu, Decision& out,
                  obs::DecisionExplain* explain = nullptr,
                  const ColumnRow* incomplete = nullptr) const;

  /// A row of a region with no PAD entry, written in place: the safe
  /// default device, valid == false, the PadLookupError text (naming
  /// `suggestion`, the nearest known region, when non-empty) and default
  /// predictions; `explain` (when non-null) is reset to a degenerate
  /// record. Untimed, like decideInto().
  void decideMissingInto(std::string_view regionName,
                         std::string_view suggestion, Decision& out,
                         obs::DecisionExplain* explain = nullptr) const;

  /// decideInto() into a fresh Decision, returned by value (the test
  /// oracle's walk and the benches use this form). Untimed:
  /// overheadSeconds is 0.
  [[nodiscard]] Decision decideFromWorkloads(
      const CompiledRegionPlan& plan, const cpumodel::CpuWorkload& cpu,
      const gpumodel::GpuWorkload& gpu,
      obs::DecisionExplain* explain = nullptr) const;

  /// Lowers a PAD entry into a compiled decision plan bound to this
  /// selector's configuration (MCA host entry, cache-line size). Pay this
  /// once at region registration; decide(RegionHandle(plan), ...) then
  /// runs allocation-free.
  [[nodiscard]] CompiledRegionPlan compile(pad::RegionAttributes attr) const;

  [[nodiscard]] const SelectorConfig& config() const { return config_; }

  /// The live selection policy (never null — the constructor installs
  /// ModelCompare when the config left it unset). TargetRuntime feeds the
  /// launch path's measured times back through this reference.
  [[nodiscard]] policy::SelectionPolicy& policy() const {
    return *config_.policy;
  }

 private:
  /// Writes every header field of the record (region, seq and atNs zeroed,
  /// path, choice, speedup, overhead) once a decide path has finished.
  static void finishExplain(obs::DecisionExplain& explain,
                            std::string_view regionName,
                            obs::DecisionPath path,
                            const Decision& decision) noexcept;
  /// Validates the predictions and picks the device (or degrades to the
  /// configured safe default).
  void resolveChoice(Decision& decision, const std::string& regionName) const;

  SelectorConfig config_;
  cpumodel::CpuCostModel cpuModel_;
  gpumodel::GpuCostModel gpuModel_;
};

}  // namespace osel::runtime
