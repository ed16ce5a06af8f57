#include "runtime/compiled_plan.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/check.h"

namespace osel::runtime {

namespace {

/// The interpreted walk's coalescing test of a resolved stride.
[[nodiscard]] bool coalescedStride(std::int64_t stride) {
  return std::abs(stride) <= 1;
}

/// The interpreted walk's false-sharing test of a resolved store stride (a
/// non-zero stride below one cache line).
[[nodiscard]] bool falseSharingStride(std::int64_t stride,
                                      std::int64_t elementBytes,
                                      std::int64_t cacheLineBytes) {
  return stride != 0 && std::abs(stride) * elementBytes < cacheLineBytes;
}

}  // namespace

CompiledRegionPlan::CompiledRegionPlan(pad::RegionAttributes attr,
                                       const std::string& mcaModelName,
                                       std::int64_t cacheLineBytes)
    : attributes_(std::move(attr)), cacheLineBytes_(cacheLineBytes) {
  // Text identical to the interpreted walk's, which checked the host entry
  // before evaluating anything.
  const auto cyclesIt = attributes_.machineCyclesPerIter.find(mcaModelName);
  if (cyclesIt == attributes_.machineCyclesPerIter.end()) {
    unusableReason_ = "OffloadSelector: PAD entry " + attributes_.regionName +
                      " has no MCA cycles for host model " + mcaModelName;
    return;
  }

  symbolic::SlotMap slots;
  const auto tooManySlots = [&] {
    if (slots.size() <= kMaxSlots) return false;
    unusableReason_ = "CompiledRegionPlan: PAD entry " +
                      attributes_.regionName + " has more than " +
                      std::to_string(kMaxSlots) +
                      " distinct runtime symbols (kMaxSlots)";
    return true;
  };
  const auto slotMask = [&](const symbolic::Expr& expr) {
    std::uint64_t mask = 0;
    for (const std::string& symbolName : expr.freeSymbols()) {
      mask |= std::uint64_t{1} << slots.lookup(symbolName);
    }
    return mask;
  };
  // Main expressions first: their slots form the *required* set (the
  // interpreted walk threw when any of their symbols was unbound).
  flatTripCount_ = symbolic::CompiledExpr(attributes_.flatTripCount, slots);
  bytesToDevice_ = symbolic::CompiledExpr(attributes_.bytesToDevice, slots);
  bytesFromDevice_ = symbolic::CompiledExpr(attributes_.bytesFromDevice, slots);
  if (tooManySlots()) return;
  flatTripCountMask_ = slotMask(attributes_.flatTripCount);
  bytesToDeviceMask_ = slotMask(attributes_.bytesToDevice);
  bytesFromDeviceMask_ = slotMask(attributes_.bytesFromDevice);
  requiredMask_ =
      flatTripCountMask_ | bytesToDeviceMask_ | bytesFromDeviceMask_;

  // --- Binding-independent workload halves ---------------------------------
  cpuTemplate_.machineCyclesPerIter = cyclesIt->second;
  cpuTemplate_.bytesTouchedPerIteration = attributes_.bytesTouchedPerIteration;
  gpuTemplate_.compInstsPerThread =
      attributes_.compInstsPerIter +
      kSpecialInstIssueWeight * attributes_.specialInstsPerIter;
  gpuTemplate_.fp64Fraction = attributes_.fp64Fraction;

  // --- Strides --------------------------------------------------------------
  // Constant (or non-affine) strides classify at compile time; the leading
  // run of them folds straight into the workload templates. Later constant
  // steps stay in `steps_` so the per-accumulator floating-point addition
  // order matches the interpreted walk exactly.
  bool folding = true;
  for (const pad::StrideAttribute& stride : attributes_.strides) {
    StrideStep step;
    step.isStore = stride.isStore;
    step.countPerIteration = stride.countPerIteration;
    step.elementBytes = stride.elementBytes;
    const auto resolved =
        stride.affine ? stride.stride.tryConstant() : std::nullopt;
    if (!stride.affine || resolved.has_value()) {
      const std::int64_t value = resolved.value_or(0);
      const bool coalesced = stride.affine && coalescedStride(value);
      step.kind = coalesced ? StrideStep::Kind::ConstCoalesced
                            : StrideStep::Kind::ConstUncoalesced;
      step.constFalseSharing =
          stride.affine && stride.isStore &&
          falseSharingStride(value, stride.elementBytes, cacheLineBytes_);
      ++preResolvedStrides_;
      if (folding) {
        if (coalesced) {
          gpuTemplate_.coalMemInstsPerThread += step.countPerIteration;
        } else {
          gpuTemplate_.uncoalMemInstsPerThread += step.countPerIteration;
        }
        if (step.constFalseSharing) cpuTemplate_.falseSharingRisk = true;
        continue;
      }
    } else {
      folding = false;
      step.kind = StrideStep::Kind::Dynamic;
      step.stride = symbolic::CompiledExpr(stride.stride, slots);
      if (tooManySlots()) return;
      step.slotsNeeded = slotMask(stride.stride);
    }
    steps_.push_back(std::move(step));
  }

  slotNames_.reserve(slots.size());
  for (const auto& [name, slot] : slots.entries()) {
    slotNames_.push_back(SlotBinding{name, slot});
  }
  // SlotMap::entries() iterates its std::map, so slotNames_ is already
  // sorted by symbol name — the order the bindings merge-join needs.
}

bool CompiledRegionPlan::bindSlotsColumn(const symbolic::Bindings& bindings,
                                         std::int64_t* columns,
                                         std::size_t rows, std::size_t row,
                                         std::uint64_t& boundMask) const {
  boundMask = 0;
  auto it = bindings.begin();
  const auto end = bindings.end();
  for (const SlotBinding& slot : slotNames_) {
    while (it != end && it->first < slot.name) ++it;
    if (it != end && it->first == slot.name) {
      columns[slot.slot * rows + row] = it->second;
      boundMask |= std::uint64_t{1} << slot.slot;
    } else {
      columns[slot.slot * rows + row] = 0;
    }
  }
  return (boundMask & requiredMask_) == requiredMask_;
}

bool CompiledRegionPlan::bindColumns(std::span<const std::string_view> names,
                                     const char* values, std::size_t rows,
                                     std::int64_t* columns,
                                     std::uint64_t& boundMask) const {
  // The wire's little-endian int64s are copied as host int64s.
  static_assert(std::endian::native == std::endian::little,
                "CompiledRegionPlan::bindColumns assumes a little-endian host");
  boundMask = 0;
  for (const SlotBinding& slot : slotNames_) {
    std::int64_t* column = columns + slot.slot * rows;
    // The last occurrence wins, as when the names are assigned into a map.
    std::size_t source = names.size();
    while (source > 0 && names[source - 1] != slot.name) --source;
    if (source == 0) {
      std::fill_n(column, rows, std::int64_t{0});
      continue;
    }
    std::memcpy(column, values + (source - 1) * rows * sizeof(std::int64_t),
                rows * sizeof(std::int64_t));
    boundMask |= std::uint64_t{1} << slot.slot;
  }
  return (boundMask & requiredMask_) == requiredMask_;
}

void CompiledRegionPlan::requireCompletable(const ColumnRow& row) const {
  if (!fastPathUsable()) throw support::PreconditionError(unusableReason_);
  if ((row.boundMask & requiredMask_) == requiredMask_) return;
  // Expr::evaluate reads only the expression's own symbols, all of them
  // slots, so the row's bound slots rebuild its diagnostic byte for byte.
  symbolic::Bindings bound;
  for (const SlotBinding& slot : slotNames_) {
    if ((row.boundMask >> slot.slot & 1) != 0) {
      bound[slot.name] = row.columns[slot.slot * row.rows + row.row];
    }
  }
  // The walk's order: trip count, then the two transfer volumes.
  const std::pair<const symbolic::Expr*, std::uint64_t> required[] = {
      {&attributes_.flatTripCount, flatTripCountMask_},
      {&attributes_.bytesToDevice, bytesToDeviceMask_},
      {&attributes_.bytesFromDevice, bytesFromDeviceMask_},
  };
  for (const auto& [expr, mask] : required) {
    if ((row.boundMask & mask) != mask) (void)expr->evaluate(bound);
  }
}

void CompiledRegionPlan::completeWorkloadsColumns(
    const std::int64_t* columns, const std::uint64_t* masks, std::size_t rows,
    std::int64_t* exprOut, std::int64_t* scratch, cpumodel::CpuWorkload* cpu,
    gpumodel::GpuWorkload* gpu) const {
  for (std::size_t r = 0; r < rows; ++r) {
    cpu[r] = cpuTemplate_;
    gpu[r] = gpuTemplate_;
  }
  flatTripCount_.evaluateColumns(columns, rows, exprOut, scratch);
  for (std::size_t r = 0; r < rows; ++r) {
    cpu[r].parallelTripCount = exprOut[r];
    gpu[r].parallelTripCount = exprOut[r];
  }
  bytesToDevice_.evaluateColumns(columns, rows, exprOut, scratch);
  for (std::size_t r = 0; r < rows; ++r) gpu[r].bytesToDevice = exprOut[r];
  bytesFromDevice_.evaluateColumns(columns, rows, exprOut, scratch);
  for (std::size_t r = 0; r < rows; ++r) gpu[r].bytesFromDevice = exprOut[r];
  for (const StrideStep& step : steps_) {
    switch (step.kind) {
      case StrideStep::Kind::ConstCoalesced:
        for (std::size_t r = 0; r < rows; ++r) {
          gpu[r].coalMemInstsPerThread += step.countPerIteration;
          if (step.constFalseSharing) cpu[r].falseSharingRisk = true;
        }
        break;
      case StrideStep::Kind::ConstUncoalesced:
        for (std::size_t r = 0; r < rows; ++r) {
          gpu[r].uncoalMemInstsPerThread += step.countPerIteration;
          if (step.constFalseSharing) cpu[r].falseSharingRisk = true;
        }
        break;
      case StrideStep::Kind::Dynamic: {
        step.stride.evaluateColumns(columns, rows, exprOut, scratch);
        for (std::size_t r = 0; r < rows; ++r) {
          bool coalesced = false;
          bool falseSharing = false;
          // Unbound symbols leave the stride unresolved for that row:
          // uncoalesced and exempt from the false-sharing test, like a
          // stride the interpreted walk could not resolve to a constant.
          if ((masks[r] & step.slotsNeeded) == step.slotsNeeded) {
            const std::int64_t value = exprOut[r];
            coalesced = coalescedStride(value);
            falseSharing =
                step.isStore &&
                falseSharingStride(value, step.elementBytes, cacheLineBytes_);
          }
          if (coalesced) {
            gpu[r].coalMemInstsPerThread += step.countPerIteration;
          } else {
            gpu[r].uncoalMemInstsPerThread += step.countPerIteration;
          }
          if (falseSharing) cpu[r].falseSharingRisk = true;
        }
        break;
      }
    }
  }
}

}  // namespace osel::runtime
