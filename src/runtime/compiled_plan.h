// osel/runtime/compiled_plan.h — compiled decision plans.
//
// The paper's §IV.D pitch is that launch-time model evaluation is
// "equivalent to solving an equation". Walking the PAD's symbolic
// expressions at every launch would resolve them through string-keyed maps
// (substituting bindings heap-allocates fresh polynomials per stride) and
// rebuild both workload structs from the PAD each time. A
// CompiledRegionPlan moves all of that to region-registration time (the
// Kerncraft / OpenMP-Advisor split: expensive analysis once, a cheap
// closed-form completion at launch):
//
//   * flatTripCount / bytesToDevice / bytesFromDevice and every affine
//     stride are lowered to slot-based symbolic::CompiledExprs over one
//     shared SlotMap, so launch-time evaluation is integer multiplies over
//     a flat array — no string hashing, no allocation;
//   * strides that are already constant are pre-classified (coalesced /
//     uncoalesced, false-sharing risk), and the leading run of constant
//     strides is folded into the workload templates so the launch path
//     skips them entirely;
//   * the binding-independent parts of CpuWorkload / GpuWorkload
//     (MCA cycles, instruction loadout, footprint) are precomputed.
//
// Launch-time completion has one form, structure-of-arrays over a region
// group, and the binders are the only code that reads a symbolic::Bindings
// map: each request's bindings fill one row of a slot-major column block
// (merge-join against the sorted slot names — string comparisons only), or,
// when the group arrives as wire columns (every oseld decide frame), each
// slot's column is copied in whole. Everything after binding reads column
// rows: every compiled expression op runs over all rows, and a row's
// diagnostic is rebuilt from its bound slots. A scalar decide is a one-row
// group. The result is
// bit-identical to the interpreted walk over the PAD entry, which lives on
// only as the test oracle (tests/oracle) that CompiledPlanEquivalence.*
// diffs against.
// Degenerate inputs produce their diagnostics here, without the walk: a
// plan that cannot run (missing MCA host entry, more symbols than
// kMaxSlots) records why, and a column row with unbound required symbols
// gets the error Expr::evaluate raises for the first expression the walk
// would have failed on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "pad/attribute_db.h"
#include "symbolic/compiled_expr.h"

namespace osel::runtime {

/// Issue-slot weight of one special math instruction (rsqrt/exp/...) in the
/// GPU model's compute stream. Shared by the compiled workload builder and
/// the test oracle's interpreted walk so the two agree exactly.
inline constexpr double kSpecialInstIssueWeight = 8.0;

/// One row of a slot-major column block as a binder left it: its values
/// (`columns[slot * rows + row]`) and its bound-slot mask.
struct ColumnRow {
  const std::int64_t* columns = nullptr;
  std::size_t rows = 1;
  std::size_t row = 0;
  std::uint64_t boundMask = 0;
};

/// A PAD region lowered for allocation-free launch-time completion.
/// Compiled once (OffloadSelector::compile or TargetRuntime::registerRegion)
/// and then read-only: concurrent decide() calls over one plan are safe.
class CompiledRegionPlan {
 public:
  /// Slot-vector capacity of the fast path; a region with more distinct
  /// runtime symbols (none in practice — Polybench kernels bind one or two)
  /// gets an unusable plan whose decisions degrade with a diagnostic naming
  /// the limit.
  static constexpr std::size_t kMaxSlots = 64;

  /// Lowers `attr`. `mcaModelName` selects the Machine_cycles_per_iter host
  /// entry (missing entry => fastPathUsable() is false); `cacheLineBytes`
  /// is the host line size the false-sharing pre-classification uses.
  CompiledRegionPlan(pad::RegionAttributes attr, const std::string& mcaModelName,
                     std::int64_t cacheLineBytes);

  /// The PAD entry the plan was compiled from (region name, diagnostics).
  [[nodiscard]] const pad::RegionAttributes& attributes() const {
    return attributes_;
  }

  /// Number of distinct runtime symbols across all compiled expressions.
  [[nodiscard]] std::size_t slotCount() const { return slotNames_.size(); }

  /// True when launch-time completion can run on the compiled fast path.
  [[nodiscard]] bool fastPathUsable() const { return unusableReason_.empty(); }

  /// Fills row `row` of a slot-major column block (`columns[slot * rows +
  /// row]`, at least slotCount() * rows entries) from `bindings` and sets
  /// bit i of `boundMask` for every bound slot i; unbound slots read 0.
  /// Returns true iff every *required* symbol (trip count / transfer
  /// expressions) is bound — optional stride-only symbols may stay unbound,
  /// matching the interpreted walk's "unresolved stride => uncoalesced"
  /// semantics. With rows == 1 the block is a plain slot vector. No heap
  /// allocation.
  bool bindSlotsColumn(const symbolic::Bindings& bindings,
                       std::int64_t* columns, std::size_t rows,
                       std::size_t row, std::uint64_t& boundMask) const;

  /// Binds a whole group of `rows` rows that all name the same symbols, in
  /// the DecideBatch wire layout: `values` holds names.size() * rows
  /// little-endian int64s, slot-major (`names[i]`'s column starts at int64
  /// index i * rows), with no alignment guarantee. Each plan slot copies the
  /// column of the *last* entry of `names` carrying its symbol into
  /// `columns[slot * rows ...]`; names the plan does not read are ignored and
  /// absent slots read 0 — exactly what bindSlotsColumn() fills for each row
  /// from a Bindings map built by assigning the names in order. `boundMask`
  /// is then every row's mask. Returns true iff every required symbol is
  /// bound. No heap allocation.
  bool bindColumns(std::span<const std::string_view> names,
                   const char* values, std::size_t rows,
                   std::int64_t* columns, std::uint64_t& boundMask) const;

  /// Throws the diagnostic of a row that cannot complete, as the
  /// interpreted walk raised it: support::PreconditionError with the
  /// recorded reason when !fastPathUsable() (the row is not read);
  /// otherwise the error Expr::evaluate throws for the first of
  /// flatTripCount, bytesToDevice and bytesFromDevice with a slot missing
  /// from the row's bound mask, over the row's bound slots. Returns only
  /// when that expression evaluates anyway (a bound zero factor absorbs the
  /// unbound symbol): the row then completes on the fast path exactly as
  /// the walk would. Allocates, but only for a row missing a required slot.
  void requireCompletable(const ColumnRow& row) const;

  /// Completes `rows` workload pairs from a slot-major column block in one
  /// pass, evaluating each compiled expression op over all rows
  /// (CompiledExpr::evaluateColumns). `exprOut`/`scratch` are
  /// caller-provided workspaces of >= rows entries. Each row's result is
  /// bit-identical to the interpreted walk on that row's bindings: the
  /// stride steps are walked in PAD order per row, so floating-point
  /// accumulation order matches exactly. Precondition: fastPathUsable().
  /// Rows whose bindSlotsColumn() returned false are completed too (unbound
  /// slots read 0, unresolved dynamic strides classify uncoalesced);
  /// callers decide such rows only after requireCompletable(). No heap
  /// allocation.
  void completeWorkloadsColumns(const std::int64_t* columns,
                                const std::uint64_t* masks, std::size_t rows,
                                std::int64_t* exprOut, std::int64_t* scratch,
                                cpumodel::CpuWorkload* cpu,
                                gpumodel::GpuWorkload* gpu) const;

  /// Strides fully resolved and classified at compile time (folded into the
  /// workload templates or kept as constant steps). Exposed for tests.
  [[nodiscard]] std::size_t preResolvedStrideCount() const {
    return preResolvedStrides_;
  }

 private:
  /// One not-prefix-foldable stride in original PAD order. Constant kinds
  /// were classified at compile time; Dynamic evaluates its CompiledExpr.
  struct StrideStep {
    enum class Kind : std::uint8_t { ConstCoalesced, ConstUncoalesced, Dynamic };
    Kind kind = Kind::Dynamic;
    bool isStore = false;
    /// Pre-classified false-sharing verdict (constant kinds only).
    bool constFalseSharing = false;
    double countPerIteration = 1.0;
    std::int64_t elementBytes = 4;
    symbolic::CompiledExpr stride;   // Kind::Dynamic only
    std::uint64_t slotsNeeded = 0;   // Kind::Dynamic only
  };

  /// Sorted (symbol name, slot) pairs for the bindings merge-join.
  struct SlotBinding {
    std::string name;
    std::size_t slot = 0;
  };

  pad::RegionAttributes attributes_;
  /// Why the fast path cannot run; empty when it can.
  std::string unusableReason_;
  std::int64_t cacheLineBytes_ = 128;

  std::vector<SlotBinding> slotNames_;  // sorted by name
  /// Slots each main expression reads, and their union (the required set).
  std::uint64_t flatTripCountMask_ = 0;
  std::uint64_t bytesToDeviceMask_ = 0;
  std::uint64_t bytesFromDeviceMask_ = 0;
  std::uint64_t requiredMask_ = 0;

  symbolic::CompiledExpr flatTripCount_;
  symbolic::CompiledExpr bytesToDevice_;
  symbolic::CompiledExpr bytesFromDevice_;

  /// Binding-independent workload templates (includes the folded prefix of
  /// constant strides).
  cpumodel::CpuWorkload cpuTemplate_;
  gpumodel::GpuWorkload gpuTemplate_;

  /// Strides after the folded constant prefix, in original order (keeps
  /// floating-point accumulation order identical to the interpreted walk).
  std::vector<StrideStep> steps_;
  std::size_t preResolvedStrides_ = 0;
};

}  // namespace osel::runtime
