// osel/runtime/batch.h — batched-decide request/scratch types.
//
// The ROADMAP's `oseld` pivot puts *batched decision requests* on the wire:
// realistic target-offloading traffic arrives as streams of many small
// decisions, and the per-call overhead scalar decide() pays (registry
// lookup, cache lock, trace span, clock reads) dwarfs the
// closed-form model evaluation itself. TargetRuntime::decideBatch amortizes
// those costs across a batch; the types here are its request unit and the
// preallocated per-thread scratch that keeps the steady-state path free of
// per-request allocation. TargetRuntime::decideColumns shares the same
// arena: a group that arrives as wire columns only differs in how its
// `columns` are filled. With a trace session attached, the explain records
// of every row a call decides afresh collect in `explains` and publish to
// the explain ring once per call, after the call's overhead is stamped.
#pragma once

#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "obs/explain.h"
#include "runtime/selector.h"
#include "symbolic/expr.h"

namespace osel::runtime {

/// One request of a TargetRuntime::decideBatch() call: which region to
/// decide for and the runtime bindings. Both fields are non-owning views —
/// the caller keeps the name and bindings alive across the call.
struct DecideRequest {
  std::string_view region;
  const symbolic::Bindings* bindings = nullptr;
};

/// Per-batch tallies decideBatch() accumulates locally and publishes once
/// per batch (one atomic add per counter) instead of once per request.
struct BatchCounters {
  std::uint64_t compiled = 0;
  std::uint64_t degenerate = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheLookups = 0;
};

/// Preallocated scratch for one decideBatch() or decide() call (a scalar
/// decide is a one-row group). The runtime keeps one arena per thread
/// (thread_local); every container is resized — never shrunk — so after a
/// warm-up call of each (rows, slots) shape the decide path performs no
/// heap allocation (pinned by the batch allocation tests).
///
/// `columns` is the SoA heart of the batch path: the current region group's
/// bound slot values laid out slot-major, `columns[slot * rows + row]`, so
/// each compiled-expression op streams over contiguous per-slot columns
/// instead of re-dispatching the op walk once per request.
struct BatchArena {
  /// Request indices sorted by region name — the per-region groups.
  std::vector<std::uint32_t> order;

  // --- Per-group state (row r is the r-th request of the group) -----------
  std::vector<std::int64_t> columns;        ///< slot-major bound values
  std::vector<std::uint64_t> masks;         ///< bound-slot mask per row
  std::vector<std::uint8_t> bindOk;         ///< the binder's verdict
  std::vector<std::uint8_t> hits;           ///< findMany verdict per row
  std::vector<std::int64_t> exprOut;        ///< CompiledExpr column output
  std::vector<std::int64_t> exprScratch;    ///< CompiledExpr column scratch
  std::vector<cpumodel::CpuWorkload> cpuWorkloads;
  std::vector<gpumodel::GpuWorkload> gpuWorkloads;
  std::vector<std::uint32_t> missRows;      ///< rows needing evaluation
  std::vector<Decision*> targets;           ///< row -> &out[request]

  // --- Per-call explain records -------------------------------------------
  /// One explain record per row the call decided afresh, in decide order;
  /// the first `explained` are this call's. Published together
  /// (TraceSession::recordExplains) once the call has stamped its overhead.
  /// Grown by explainRows(), never shrunk; untouched when untraced.
  std::vector<obs::DecisionExplain> explains;
  std::size_t explained = 0;

  /// Starts a batch of `requests` requests: order becomes the identity
  /// permutation (sorted by the caller), the call's explain records reset.
  /// The miss row list is reserved up front — it is push_back'd on a
  /// data-dependent path, so growing it lazily would allocate on the first
  /// batch whose hit/miss mix differs from the warm-up's.
  void begin(std::size_t requests) {
    order.resize(requests);
    std::iota(order.begin(), order.end(), 0U);
    missRows.reserve(requests);
    explained = 0;
  }

  /// Sizes the per-group state for `rows` requests over `slots` slots.
  void beginGroup(std::size_t rows, std::size_t slots) {
    columns.resize(slots * rows);
    masks.resize(rows);
    bindOk.resize(rows);
    hits.resize(rows);
    exprOut.resize(rows);
    exprScratch.resize(rows);
    cpuWorkloads.resize(rows);
    gpuWorkloads.resize(rows);
    targets.resize(rows);
    missRows.clear();
  }

  /// Claims the call's next `rows` explain records: record k belongs to
  /// the k-th row decided afresh by the caller. The pointer is valid until
  /// the next claim.
  obs::DecisionExplain* explainRows(std::size_t rows) {
    if (explains.size() < explained + rows) explains.resize(explained + rows);
    obs::DecisionExplain* const claimed = explains.data() + explained;
    explained += rows;
    return claimed;
  }
};

}  // namespace osel::runtime
