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
// Records are fixed-size (region names truncate into an inline 48-byte
// label, mirroring obs::TraceEvent) and flow through non-virtual "explain
// sink" hooks: cpumodel::explainInto / gpumodel::explainInto fold a
// (workload, prediction) pair into the term structs, and
// runtime::OffloadSelector::decide takes an optional DecisionExplain* it
// fills from the compiled plan — term-identical to the test oracle's
// interpreted walk, as the equivalence suite pins. The ExplainRing mirrors
// the TraceSession event ring: preallocated, bounded, overwrite-oldest,
// drop-counting; pushing never heap-allocates. The runtime publishes the
// records of one decide call with a single pushMany() — one lock and one
// timestamp per call, not per row; a lone push() is its one-record case.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

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
  static constexpr std::size_t kLabelCapacity = 48;

  std::array<char, kLabelCapacity> region{};  ///< NUL-terminated, truncated
  std::uint64_t seq = 0;   ///< record order, stamped by ExplainRing::pushMany
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

  void setRegion(std::string_view name) noexcept;
  [[nodiscard]] std::string_view regionView() const {
    return std::string_view(region.data());
  }
};

/// Bounded ring of DecisionExplain records, oldest-overwritten. Same
/// contract as the TraceSession event ring: preallocated at construction,
/// pushing never allocates, drops are counted. Thread-safe.
class ExplainRing {
 public:
  /// Precondition: capacity > 0.
  explicit ExplainRing(std::size_t capacity);

  /// Copies `records` into the ring under one lock, stamping seq in record
  /// order and atNs = `stampNs` on every record that left atNs at 0. The
  /// ring ends up exactly as after one push() per record: records that a
  /// later record of the same call would overwrite (more records than
  /// capacity()) count as recorded and dropped without being copied.
  /// Never allocates.
  void pushMany(std::span<const DecisionExplain> records,
                std::int64_t stampNs = 0) noexcept;

  /// Copies `record` into the ring, stamping its seq (its atNs is kept).
  void push(const DecisionExplain& record) noexcept {
    pushMany(std::span<const DecisionExplain>(&record, 1));
  }

  /// Buffered records, oldest first (at most capacity()).
  [[nodiscard]] std::vector<DecisionExplain> snapshot() const;

  /// Copies the newest surviving record for `region` into `out`; false when
  /// the ring holds none.
  [[nodiscard]] bool latestFor(std::string_view region,
                               DecisionExplain& out) const;

  /// Total records offered (kept + overwritten).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Records overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<DecisionExplain> ring_;  ///< preallocated, indexed seq % cap
  std::uint64_t nextSeq_ = 0;
};

}  // namespace osel::obs
