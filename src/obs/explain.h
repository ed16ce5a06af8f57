// osel/obs/explain.h — per-decision model-term attribution.
//
// The paper's evaluation (Figs. 6–7) compares predicted and measured times
// per kernel, but a miss alone does not say *which model term* drifted:
// was the CPU model's MCA-derived Machine_cycles_per_iter stale, or did the
// GPU model mis-estimate MWP because IPDA's coalescing split no longer
// matches the access pattern? A DecisionExplain record captures the full
// term breakdown of both analytical models for one decide() call — the
// Kerncraft-style per-term exposition, produced online instead of offline.
//
// Records are fixed-size (region names truncate into the shared inline
// label, obs/ring.h) and flow through non-virtual "explain sink" hooks:
// cpumodel::explainInto / gpumodel::explainInto fold a
// (workload, prediction) pair into the term structs, and
// runtime::OffloadSelector::decide takes an optional DecisionExplain* it
// fills from the compiled plan — term-identical to the test oracle's
// interpreted walk, as the equivalence suite pins. The ExplainRing is a
// BoundedRing<DecisionExplain>; the runtime publishes the records of one
// decide call with a single pushMany() — one lock and one timestamp per
// call, not per row.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/ring.h"

namespace osel::obs {

/// Whether the models produced this record's terms.
enum class DecisionPath : std::uint8_t {
  Compiled,    ///< the compiled plan completed the workloads, models ran
  Degenerate,  ///< no PAD entry / plan or model evaluation failed
};

[[nodiscard]] const char* toString(DecisionPath path);

/// CPU model (Liao–Chapman, paper Fig. 3) term breakdown plus the workload
/// inputs that produced it. Cycles mirror cpumodel::CpuPrediction exactly.
struct CpuTerms {
  double machineCyclesPerIter = 0.0;  ///< MCA pipeline estimate (§IV.A.1)
  double tripCount = 0.0;             ///< flattened parallel trip count
  double forkJoinCycles = 0.0;
  double scheduleCycles = 0.0;
  double workCycles = 0.0;
  double loopOverheadCycles = 0.0;
  double tlbCycles = 0.0;
  double falseSharingCycles = 0.0;
  double totalCycles = 0.0;
  double seconds = 0.0;
};

/// GPU model (Hong–Kim + OpenMP extension, paper Figs. 4–5) term breakdown
/// plus the IPDA-derived memory split and transfer volumes.
struct GpuTerms {
  double ompRep = 0.0;  ///< #OMP_Rep — iterations per GPU thread
  double mwp = 0.0;
  double cwp = 0.0;
  double memCycles = 0.0;
  double compCycles = 0.0;
  double activeWarpsPerSm = 0.0;  ///< N
  double coalMemInsts = 0.0;      ///< per-thread, IPDA-classified
  double uncoalMemInsts = 0.0;
  /// IPDA coalescing degree: coal / (coal + uncoal); 0 with no mem insts.
  double coalescedFraction = 0.0;
  double bytesToDevice = 0.0;
  double bytesFromDevice = 0.0;
  double kernelSeconds = 0.0;
  double transferSeconds = 0.0;
  double launchSeconds = 0.0;
  double totalSeconds = 0.0;
  std::uint8_t execCase = 0;  ///< numeric gpumodel::ExecCase
};

/// One decision's full forensics record. Fixed-size; safe to copy into the
/// ring without touching the heap.
struct DecisionExplain {
  static constexpr std::size_t kLabelCapacity = obs::kLabelCapacity;

  InlineLabel region{};    ///< NUL-terminated, truncated
  std::uint64_t seq = 0;   ///< record order, stamped by the ring
  /// ns since session start, stamped on record; the records of one decide
  /// call share one stamp.
  std::int64_t atNs = 0;
  DecisionPath path = DecisionPath::Compiled;
  bool valid = true;       ///< Decision::valid
  bool chosenGpu = false;  ///< selected device
  CpuTerms cpu;
  GpuTerms gpu;
  /// cpu.seconds / gpu.totalSeconds; NaN when not comparable.
  double predictedSpeedup = 0.0;
  double overheadSeconds = 0.0;

  void setRegion(std::string_view name) noexcept { setLabel(region, name); }
  [[nodiscard]] std::string_view regionView() const {
    return std::string_view(region.data());
  }
};

using ExplainRing = BoundedRing<DecisionExplain>;

}  // namespace osel::obs
