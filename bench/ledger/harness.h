// bench/ledger/harness.h — shared machinery of the osel performance ledger:
// run options and results, the latency histogram, the span buffer of the
// traced run, the decide stack every workload serves from, and the request
// streams the workloads replay.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/region.h"
#include "mca/machine_model.h"
#include "runtime/target_runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "symbolic/expr.h"

namespace ledger {

using namespace osel;

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile of `values`, interpolated between neighbours; NaN when
/// empty.
[[nodiscard]] double quantileOf(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantileOf(std::move(values), 0.5);
}

/// What one invocation runs.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2019;
  double seconds = 20.0;
  bool traced = false;
  std::string traceOut;  ///< Chrome trace JSON path; empty = none
};

/// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `failed` counts exceptions, service errors and
/// check mismatches; degraded (valid == false) decisions are answers, not
/// failures.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// --- Latency histogram ------------------------------------------------------

/// Log-linear histogram over nanoseconds: exact below 64 ns, then 64 linear
/// sub-buckets per power of two, so every bucket is at most 1/64 (1.6%) of
/// its lower bound wide. Fixed size; recording never allocates.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr int kMaxExponent = 40;  ///< values >= 2^41 ns clamp
  static constexpr std::size_t kBuckets =
      kSub + (kMaxExponent - kSubBits + 1) * kSub;

  void record(std::uint64_t ns) noexcept {
    counts_[bucketOf(ns)] += 1;
    total_ += 1;
  }
  void merge(const LatencyHistogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// q-quantile in nanoseconds, interpolated linearly inside the bucket
  /// holding rank q * count; NaN when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  [[nodiscard]] static std::size_t bucketOf(std::uint64_t ns) noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// --- Steal-aware windows ------------------------------------------------------

/// A measured window is cut into slices of this length.
inline constexpr std::int64_t kSliceNs = 500'000'000;

/// CPU time the hypervisor ran other guests on this VM's CPUs ("steal" in
/// /proc/stat), in clock ticks summed over the CPUs; 0 where the kernel does
/// not report it, which makes every slice count.
[[nodiscard]] std::int64_t stealTicks();

/// The VM's CPU time over one slice, in clock ticks summed over its CPUs.
[[nodiscard]] double cpuTicksPerSlice();

/// A slice is set aside when the hypervisor stole more than this share of
/// the VM's CPU time during it. Each connection is a client thread and a
/// server worker handing every request to each other, so a few milliseconds
/// taken from any CPU stall a connection outright; on a shared host that
/// swings a whole run's rate by 4x and its p99 by 30x.
inline constexpr double kStealAllowance = 0.01;

/// One closed-loop caller's requests in a window, filed by the slice in
/// which they completed: their latencies and the decisions they carried.
/// Storage for every slice is allocated up front; recording never
/// allocates.
class SlicedRecorder {
 public:
  SlicedRecorder(std::int64_t startNs, std::size_t slices)
      : startNs_(startNs), latency_(slices), decisions_(slices, 0) {}

  [[nodiscard]] std::size_t sliceOf(std::int64_t ns) const {
    return static_cast<std::size_t>((ns - startNs_) / kSliceNs);
  }
  void record(std::size_t slice, std::int64_t latencyNs,
              std::uint64_t decisions) noexcept {
    latency_[slice].record(static_cast<std::uint64_t>(latencyNs));
    decisions_[slice] += decisions;
  }
  [[nodiscard]] const LatencyHistogram& latency(std::size_t slice) const {
    return latency_[slice];
  }
  [[nodiscard]] std::uint64_t decisions(std::size_t slice) const {
    return decisions_[slice];
  }

 private:
  std::int64_t startNs_;
  std::vector<LatencyHistogram> latency_;
  std::vector<std::uint64_t> decisions_;
};

/// End-to-end numbers of one window, merged over its callers and the
/// slices that count.
struct WindowSummary {
  double decisionsPerSecond = 0.0;  ///< decisions over the counted time
  double p50Us = 0.0;               ///< median of the counted requests
  double p99Us = 0.0;               ///< 99th percentile of the same
  std::uint64_t requests = 0;
  std::uint64_t decisions = 0;
};
[[nodiscard]] WindowSummary summarize(
    const std::vector<SlicedRecorder>& callers,
    const std::vector<bool>& counted);

// --- Traced-run spans --------------------------------------------------------

/// One span: a layer call or a request, with the span that caused it and
/// the request it belongs to (0 when it belongs to none).
struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Preallocated ring of spans for one thread. When full, the oldest spans
/// are overwritten (and counted as dropped), so recording costs the same
/// for the whole traced window. Ids are unique across buffers.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : ring_(capacity) {}

  /// Reserves an id for a span recorded later (a parent that must be
  /// closed after its children).
  [[nodiscard]] static std::uint64_t reserveId() noexcept;
  void record(const char* name, std::int64_t startNs, std::int64_t endNs,
              std::uint64_t parent = 0, std::uint64_t request = 0) noexcept {
    recordWithId(reserveId(), name, startNs, endNs, parent, request);
  }
  void recordWithId(std::uint64_t id, const char* name, std::int64_t startNs,
                    std::int64_t endNs, std::uint64_t parent,
                    std::uint64_t request) noexcept {
    ring_[written_ % ring_.size()] = {name, startNs, endNs, id, parent, request};
    ++written_;
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return written_ > ring_.size() ? written_ - ring_.size() : 0;
  }
  /// Calls `visit(span)` for every held span, oldest first.
  template <typename Visit>
  void forEach(Visit visit) const {
    const std::uint64_t held = std::min<std::uint64_t>(written_, ring_.size());
    for (std::uint64_t k = written_ - held; k < written_; ++k) {
      visit(ring_[k % ring_.size()]);
    }
  }

 private:
  std::vector<Span> ring_;
  std::uint64_t written_ = 0;
};

/// The traced run's span buffers, one per recording thread.
struct TraceLog {
  static constexpr std::size_t kSpansPerThread = 1 << 18;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  SpanBuffer& thread(std::size_t index) {
    while (buffers.size() <= index) {
      buffers.push_back(std::make_unique<SpanBuffer>(kSpansPerThread));
    }
    return *buffers[index];
  }
  /// Writes every span as Chrome trace JSON; false on an I/O error.
  [[nodiscard]] bool writeChromeJson(const std::string& path) const;
};

// --- The decide stack ---------------------------------------------------------

/// The runtime configuration oseld serves with by default (POWER9 + V100
/// models, 160 host threads).
[[nodiscard]] runtime::RuntimeOptions serviceRuntimeOptions();

/// Fresh copies of the 24 Polybench target regions, in suite order.
[[nodiscard]] std::vector<ir::TargetRegion> suiteRegions();

/// A decide stack brought up from nothing: PAD compiled from the suite, a
/// runtime with all 24 regions registered and, for served workloads, an
/// oseld Server on a Unix socket with connected clients.
struct Stack {
  std::unique_ptr<runtime::TargetRuntime> runtime;  ///< in-process stacks
  std::unique_ptr<service::Server> server;          ///< served stacks
  std::vector<service::Client> clients;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) noexcept;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  /// Clients hang up before the server stops.
  ~Stack();

  [[nodiscard]] runtime::TargetRuntime& decider() {
    return server != nullptr ? server->runtime() : *runtime;
  }
};

/// Socket path for this process's loopback server, inside the checkout.
[[nodiscard]] std::string socketPath();

/// In-process stack under `options`.
[[nodiscard]] Stack buildRuntimeStack(const runtime::RuntimeOptions& options,
                                      const mca::MachineModel& model);
/// Served stack: `workers` server threads and `connections` clients.
[[nodiscard]] Stack buildServedStack(const runtime::RuntimeOptions& options,
                                     std::size_t workers,
                                     std::size_t connections,
                                     const std::string& socket);

/// Set-up is timed this many times from empty before the warm-up and as
/// many times after the window; setup_s is the median of all of them. One
/// build takes milliseconds, so a handful of builds at one moment leaves the
/// median at the mercy of what the host runs beside it at that moment.
inline constexpr int kSetupRepeats = 25;

// --- Request streams ------------------------------------------------------------

/// The (region, bindings) space a workload draws from: every suite region
/// with one binding set per size.
struct Catalog {
  std::vector<std::string> regions;              ///< suite order
  std::vector<std::int64_t> sizes;               ///< n per size index, ascending
  std::vector<std::vector<symbolic::Bindings>> bindings;  ///< [region][size]

  [[nodiscard]] const symbolic::Bindings& at(std::uint32_t region,
                                             std::uint32_t size) const {
    return bindings[region][size];
  }
};
[[nodiscard]] Catalog makeCatalog(std::vector<std::int64_t> sizes);

/// One request of a stream, as indices into its Catalog.
struct Request {
  std::uint32_t region = 0;
  std::uint32_t size = 0;
};

/// `count` requests from workload::Generator (zipfian, s = 1.2) over the
/// catalog — every region offering every size — seeded with `seed`.
[[nodiscard]] std::vector<Request> zipfianStream(const Catalog& catalog,
                                                 std::uint64_t seed,
                                                 std::size_t count);

/// Rows of one region, in stream order: a DecideBatch frame's contents.
struct Block {
  std::uint32_t region = 0;
  std::vector<std::uint32_t> sizes;
  std::vector<std::int64_t> values;  ///< slot-major "n" column
};
/// Groups a stream per region in stream order, emitting a block whenever a
/// region collects `rows` requests (how a batching client frames). With
/// `flushPartial` the leftovers become short blocks at the end.
[[nodiscard]] std::vector<Block> frameStream(const Catalog& catalog,
                                             const std::vector<Request>& stream,
                                             std::size_t rows,
                                             bool flushPartial);

// --- Checks ------------------------------------------------------------------------

/// The equivalence contract of the decide paths: device, validity and
/// diagnostic equal, predictions equal bit for bit.
[[nodiscard]] bool sameDecision(const runtime::Decision& a,
                                const runtime::Decision& b);

/// Decides `requests` with decideBatch on `reference` and counts the rows
/// of `got` that differ; the first mismatch is described in `note`.
[[nodiscard]] std::uint64_t countMismatches(
    runtime::TargetRuntime& reference, const Catalog& catalog,
    const std::vector<Request>& requests,
    const std::vector<runtime::Decision>& got, std::string& note);

/// Hits per lookup between two cache-counter snapshots; 0 without lookups.
[[nodiscard]] double hitRatio(const runtime::DecisionCache::Stats& before,
                              const runtime::DecisionCache::Stats& after);

/// Summed decision-cache counters over the suite's regions.
[[nodiscard]] runtime::DecisionCache::Stats cacheStats(
    const runtime::TargetRuntime& runtime, const Catalog& catalog);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peakRssMb();

/// Formats like printf into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// --- Per-layer measurement (traced run) -------------------------------------------

/// What the per-layer loops replay: the workload's decide configuration and
/// its own requests.
struct LayerInputs {
  runtime::RuntimeOptions options;
  mca::MachineModel model;
  const Catalog* catalog = nullptr;
  std::vector<Request> stream;  ///< requests in arrival order
  /// The same requests as the workload's decide path groups them: one
  /// block per request for scalar decide (a batch of one), 64-row frames
  /// for decideBatch.
  std::vector<Block> blocks;
  /// The workload sends DecideBatch frames, decided by decideBatch; else
  /// DecideRequest frames, decided by scalar decide.
  bool batched = false;
  /// Fail the run when attribution.decide leaves [0.8, 1.2].
  bool checkAttribution = false;
  double budgetSeconds = 0.2;  ///< measuring time per layer
};

/// Requests the per-layer loops replay: the head of the workload's stream.
inline constexpr std::size_t kLayerRequests = 16384;

/// Measuring time per layer for a traced run of `seconds`.
[[nodiscard]] double layerBudget(double seconds);

/// Times the public functions of the setup layers (compiler, IPDA, MCA,
/// registration), the decide layers (plan bind and completion,
/// both models, policy, selector, decision cache, scalar and batched
/// decide) and the codec on `inputs`, then checks that the layers add up to
/// the stacked decide. Adds the metrics to `result`.
void measureLayers(const LayerInputs& inputs, SpanBuffer& spans,
                   std::uint64_t parent, Result& result);

/// The server's per-stage histograms at one point in time.
using StageSnapshot = obs::MetricsRegistry::Snapshot;
[[nodiscard]] StageSnapshot snapshotStages(service::Server& server);
/// server.* metrics: the mean per frame of each service.*_s histogram over
/// the interval between two snapshots, plus server.share_of_roundtrip
/// against the client's p50 round trip over the same interval.
void addServerStages(const StageSnapshot& before, const StageSnapshot& after,
                     double clientRoundtripUs, Result& result);
/// client.ping_us: p50 of `pings` Ping round trips.
[[nodiscard]] double pingP50Us(service::Client& client, int pings);

// --- Workloads ---------------------------------------------------------------------

[[nodiscard]] Result runServeHot(const RunOptions& options, TraceLog* trace);
[[nodiscard]] Result runServeColdBatch(const RunOptions& options,
                                       TraceLog* trace);

}  // namespace ledger
