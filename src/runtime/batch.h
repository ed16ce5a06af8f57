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
//
// A call's *record tail* — the explain publish of its fresh rows — is work
// its answer does not read. The tail lives in the arena: decide() and
// decideBatch() run it before they return, and TargetRuntime::decideColumns
// (every oseld decide frame) leaves it pending behind a PendingRecord so the
// server can send the reply first; a caller that discards that handle runs
// the tail at the end of the statement. Whatever happens, a pending tail
// runs before the thread's next decide call reuses the arena. The decision
// cache is not part of the tail: a memoizing call (decide, decideBatch)
// inserts each group's fresh rows before its clock read, and decideColumns
// does not memoize.
#pragma once

#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "obs/explain.h"
#include "runtime/selector.h"
#include "symbolic/expr.h"

namespace osel::obs {
class TraceSession;
}  // namespace osel::obs

namespace osel::runtime {

class TargetRuntime;

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

  // --- The call's record tail ---------------------------------------------
  /// The call's explain publish: explains[0, explained) stamped with
  /// `explainOverhead` and published to `explainSession`. Null when nothing
  /// is parked.
  obs::TraceSession* explainSession = nullptr;
  double explainOverhead = 0.0;
  /// Decide calls begun on this arena; a PendingRecord runs the tail only
  /// while the call that parked it is still the latest.
  std::uint64_t calls = 0;

  /// Runs the parked explain publish, if any.
  void runRecord();

  /// Starts a batch of `requests` requests: a tail an earlier call left
  /// pending runs first, then order becomes the identity permutation
  /// (sorted by the caller) and the call's explain records reset.
  /// The miss row list is reserved up front — it is push_back'd on a
  /// data-dependent path, so growing it lazily would allocate on the first
  /// batch whose hit/miss mix differs from the warm-up's.
  void begin(std::size_t requests) {
    if (explainSession != nullptr) runRecord();
    ++calls;
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

/// The record tail of one TargetRuntime::decideColumns() call, left
/// pending in the calling thread's BatchArena: the explain publish of the
/// call's fresh rows. run() runs it; the destructor runs it if run() was
/// never called; either is a no-op once the thread's next decide call has
/// run it (every decide entry point runs a pending tail before it reuses
/// the arena). Move-only. Run or destroy it on the thread that made it,
/// while the runtime's trace session lives.
class PendingRecord {
 public:
  PendingRecord() = default;
  PendingRecord(PendingRecord&& other) noexcept
      : arena_(std::exchange(other.arena_, nullptr)), call_(other.call_) {}
  PendingRecord& operator=(PendingRecord&& other) noexcept {
    if (this != &other) {
      run();
      arena_ = std::exchange(other.arena_, nullptr);
      call_ = other.call_;
    }
    return *this;
  }
  PendingRecord(const PendingRecord&) = delete;
  PendingRecord& operator=(const PendingRecord&) = delete;
  ~PendingRecord() { run(); }

  void run() {
    BatchArena* const arena = std::exchange(arena_, nullptr);
    if (arena != nullptr && arena->calls == call_) arena->runRecord();
  }

 private:
  friend class TargetRuntime;
  PendingRecord(BatchArena& arena, std::uint64_t call)
      : arena_(&arena), call_(call) {}

  BatchArena* arena_ = nullptr;
  std::uint64_t call_ = 0;
};

}  // namespace osel::runtime
