// osel/tests/oracle/oracle.h — the interpreted decide walk, kept only as
// the reference the equivalence suites diff the compiled plans against.
//
// The walk builds the CPU/GPU workload pair straight from a PAD entry by
// substituting the runtime bindings into its symbolic expressions
// (Expr::evaluate / substituteAll) on every call — the launch-time path osel
// shipped before compiled plans. It shares nothing with
// CompiledRegionPlan's lowering, so a bit-identical result is evidence that
// the lowering is right. Each decision then finishes through the library's
// public OffloadSelector::decideFromWorkloads, so both sides share one
// model / policy / explain tail and differ only in how they build the
// workloads.
#pragma once

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "obs/explain.h"
#include "pad/attribute_db.h"
#include "runtime/selector.h"
#include "symbolic/expr.h"

namespace osel::oracle {

/// CPU model inputs for `attr` under `bindings`: the MCA cycles of the
/// selector's configured host, the trip count, and the false-sharing flag
/// of resolved store strides. Throws support::PreconditionError when the
/// PAD entry has no MCA cycles for that host or a trip-count symbol is
/// unbound.
[[nodiscard]] cpumodel::CpuWorkload cpuWorkload(
    const runtime::OffloadSelector& selector, const pad::RegionAttributes& attr,
    const symbolic::Bindings& bindings);

/// GPU model inputs for `attr` under `bindings`; the coalesced/uncoalesced
/// split comes from resolving each stored symbolic stride with the runtime
/// bindings (paper §IV.C, case 2). Throws support::PreconditionError when a
/// trip-count or transfer symbol is unbound.
[[nodiscard]] gpumodel::GpuWorkload gpuWorkload(
    const pad::RegionAttributes& attr, const symbolic::Bindings& bindings);

/// The interpreted decide: builds both workloads with the walk above and
/// finishes through selector.decideFromWorkloads. When the walk throws, the
/// decision degrades to the selector's safe default device with the
/// exception text as its diagnostic, and `explain` (when non-null) gets a
/// Degenerate record, as the library does for a row it cannot complete.
[[nodiscard]] runtime::Decision decide(const runtime::OffloadSelector& selector,
                                       const pad::RegionAttributes& attr,
                                       const symbolic::Bindings& bindings,
                                       obs::DecisionExplain* explain = nullptr);

}  // namespace osel::oracle
