// osel/ipda/ipda.h — Iteration Point Difference Analysis.
//
// Implements the inter-thread stride analysis of Chikin et al. used by the
// paper (§II.C, §IV.C): for every static memory access in an OpenMP parallel
// loop, build the symbolic difference between the flattened addressing
// expressions of adjacent GPU threads. The difference is the *inter-thread
// stride*, the quantity that decides whether the generated GPU code is
// memory-coalesced. Strides may stay symbolic at compile time ("[max]") and
// be resolved by the runtime just before launch — the hybrid
// static/dynamic split at the heart of the paper.
//
// Thread model: the OpenMP-to-GPU lowering flattens the (possibly collapsed)
// parallel dims row-major and assigns consecutive flattened iterations to
// consecutive threads, so "adjacent threads" differ by +1 in the innermost
// parallel variable. (Warp wrap-around at dimension boundaries is ignored —
// a documented abstraction shared with the paper's prototype.)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/region.h"
#include "ir/traversal.h"
#include "symbolic/expr.h"

namespace osel::ipda {

/// Coalescing classes an access resolves to once runtime values are bound.
enum class CoalescingClass {
  Coalesced,  ///< |stride| == 1 element: adjacent threads, adjacent elements
  Uniform,    ///< stride == 0: all threads in a warp read one address
  Strided,    ///< constant |stride| > 1 elements: partially/fully serialized
  Irregular,  ///< stride varies across iterations/threads or is non-affine
};

[[nodiscard]] std::string toString(CoalescingClass value);

/// The resolved classification of one access under concrete bindings.
struct Classification {
  CoalescingClass kind = CoalescingClass::Irregular;
  /// Absolute stride in *elements*; present unless Irregular.
  std::optional<std::int64_t> strideElements;

  /// The paper's binary summary used by the Hong-Kim model inputs: an
  /// access counts as coalesced iff adjacent threads fall into one memory
  /// transaction (Coalesced or Uniform).
  [[nodiscard]] bool countsAsCoalesced() const {
    return kind == CoalescingClass::Coalesced || kind == CoalescingClass::Uniform;
  }
};

/// Per-access-site result of the static half of the analysis.
struct StrideRecord {
  /// The access site (array, indices, store flag, loop context).
  ir::AccessSite site;
  /// Flattened (row-major) element-index expression of the access.
  symbolic::Expr linearIndex;
  /// Symbolic inter-thread stride: linearIndex differenced in the thread
  /// variable, read off as that variable's coefficient (equal for an
  /// affine address). Meaningful only when `affineInThreadVar`.
  symbolic::Expr stride;
  /// True when the address is affine in the thread (innermost parallel)
  /// variable, i.e. the difference is independent of the thread's position.
  bool affineInThreadVar = false;
  /// Element size in bytes (from the array declaration).
  std::size_t elementBytes = 8;

  /// Resolves the symbolic stride with runtime values. Unresolvable or
  /// position-dependent strides classify as Irregular.
  [[nodiscard]] Classification classify(const symbolic::Bindings& bindings) const;

  /// Compile-time classification attempt: succeeds only when the stride is
  /// already constant (case 1 of the paper's §IV.C example).
  [[nodiscard]] std::optional<Classification> classifyStatic() const {
    if (!affineInThreadVar) return Classification{};  // Irregular, known now
    if (const auto constant = stride.tryConstant()) {
      return classify({});
    }
    return std::nullopt;
  }
};

/// Whole-region IPDA result.
class Analysis {
 public:
  /// Runs the analysis over every static access of `region`.
  static Analysis analyze(const ir::TargetRegion& region);

  [[nodiscard]] const std::vector<StrideRecord>& records() const {
    return records_;
  }

  /// The thread variable the strides were differenced in (innermost
  /// parallel dim).
  [[nodiscard]] const std::string& threadVar() const { return threadVar_; }

  /// Counts of loads/stores per coalescing class under `bindings`, each
  /// site weighted by its *static* multiplicity only (one per site). Trip
  /// weighting is the model's business, not the analysis's.
  struct SiteCounts {
    std::int64_t coalesced = 0;
    std::int64_t uniform = 0;
    std::int64_t strided = 0;
    std::int64_t irregular = 0;
  };
  [[nodiscard]] SiteCounts classifySites(const symbolic::Bindings& bindings) const;

  /// True when any *store* has a resolved stride whose byte distance between
  /// adjacent parallel iterations is positive and below the cache-line size:
  /// adjacent CPU threads working on neighbouring chunk boundaries would
  /// then dirty the same line (§II.C: the same result informs CPU
  /// false-sharing).
  [[nodiscard]] bool falseSharingRisk(const symbolic::Bindings& bindings,
                                      std::int64_t cacheLineBytes) const;

  /// Human-readable dump of every record ("IPD_th(A[...]) = [max]").
  [[nodiscard]] std::string toString() const;

 private:
  std::vector<StrideRecord> records_;
  std::string threadVar_;
};

}  // namespace osel::ipda
