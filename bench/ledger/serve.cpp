// The two workloads: serve_hot and serve_cold_batch drive an oseld Server
// over its Unix socket from two closed-loop connections.
#include <atomic>
#include <cmath>
#include <thread>

#include "harness.h"

namespace ledger {

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerWorkers = 2;
constexpr double kWarmupSeconds = 2.0;
/// How far past its length a window may run to find slices that count.
constexpr double kStretch = 1.5;
/// Decisions per connection re-checked against an in-process decideBatch.
constexpr std::size_t kCheckDecisions = 4096;
constexpr std::size_t kFrameRows = 64;

/// One closed-loop phase: every caller sends its next request as soon as
/// the previous one returned. A slice counts when the hypervisor stole at
/// most kStealAllowance of the CPU time during it and during the slice
/// before it (a request completing in a slice began in it or, at worst, in
/// the one before).
struct Phase {
  std::vector<SlicedRecorder> windows;  ///< one per caller
  std::vector<bool> counted;            ///< per finished slice
  std::int64_t stolenTicks = 0;         ///< over the finished slices
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  [[nodiscard]] WindowSummary summary() const {
    return summarize(windows, counted);
  }
  [[nodiscard]] std::size_t countedSlices() const {
    return static_cast<std::size_t>(
        std::count(counted.begin(), counted.end(), true));
  }
};

/// Runs one caller per connection, caller 0 on this thread, until `seconds`
/// of slices count or `maxSeconds` have passed; if no slice counted by then,
/// every finished slice does. `send(c)` sends caller c's next request and
/// returns the decisions it carried; an exception is a failed request and
/// ends that caller. With a trace log, each request is recorded as a span
/// under `parent`.
template <typename Send>
Phase runPhase(double seconds, double maxSeconds, Send& send, TraceLog* trace,
               std::uint64_t parent) {
  if (trace != nullptr) (void)trace->thread(kConnections - 1);  // before threads
  const auto slicesFor = [](double s) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(s * 1e9 / kSliceNs)));
  };
  const std::size_t wanted = slicesFor(seconds);
  const std::size_t most = std::max(wanted, slicesFor(maxSeconds));
  const double allowance = kStealAllowance * cpuTicksPerSlice();
  const std::int64_t start = nowNs();
  Phase phase;
  for (std::size_t c = 0; c < kConnections; ++c) {
    phase.windows.emplace_back(start, most);
  }
  std::atomic<std::size_t> stop{most};  ///< first slice not measured
  std::vector<std::uint64_t> attempted(kConnections, 0);
  std::vector<std::uint64_t> failed(kConnections, 0);
  std::vector<std::string> errors(kConnections);

  // Caller 0 closes the slices that ended before its latest request did: it
  // reads the steal counter, judges them, and sets `stop` once enough count.
  std::int64_t lastSteal = stealTicks();
  bool previousStolen = false;
  std::size_t counting = 0;
  const auto closeSlices = [&](std::size_t upTo) {
    if (upTo <= phase.counted.size()) return;
    const std::int64_t steal = stealTicks();
    const bool stolen = static_cast<double>(steal - lastSteal) > allowance;
    phase.stolenTicks += steal - lastSteal;
    lastSteal = steal;
    while (phase.counted.size() < upTo) {
      phase.counted.push_back(!stolen && !previousStolen);
      counting += phase.counted.back() ? 1 : 0;
      previousStolen = stolen;
    }
    if (counting >= wanted || upTo >= most) {
      stop.store(upTo, std::memory_order_relaxed);
    }
  };

  const auto body = [&](std::size_t c) {
    SpanBuffer* spans = trace != nullptr ? trace->buffers[c].get() : nullptr;
    SlicedRecorder& window = phase.windows[c];
    std::int64_t previous = nowNs();
    for (std::uint64_t i = 0;; ++i) {
      std::uint64_t decisions = 0;
      try {
        decisions = send(c);
      } catch (const std::exception& error) {
        ++attempted[c];
        ++failed[c];
        errors[c] = error.what();
        return;
      }
      const std::int64_t now = nowNs();
      const std::size_t slice = window.sliceOf(now);
      if (c == 0) closeSlices(std::min(slice, most));
      if (slice >= stop.load(std::memory_order_relaxed)) return;
      window.record(slice, now - previous, decisions);
      ++attempted[c];
      if (spans != nullptr) {
        spans->record("request", previous, now, parent,
                      (static_cast<std::uint64_t>(c + 1) << 40) | i);
      }
      previous = now;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < kConnections; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& thread : threads) thread.join();
  for (std::size_t c = 0; c < kConnections; ++c) {
    phase.attempted += attempted[c];
    phase.failed += failed[c];
    if (!errors[c].empty()) phase.error = errors[c];
  }
  if (counting == 0) phase.counted.assign(phase.counted.size(), true);
  return phase;
}

void account(Result& result, const Phase& phase, const char* what) {
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  if (phase.failed > 0) {
    result.note(format("FAILED: %llu %s request(s): %s",
                       static_cast<unsigned long long>(phase.failed), what,
                       phase.error.c_str()));
  }
}

/// Builds the served stack kSetupRepeats times from empty, keeping the last
/// in `stack`, and appends each build's time to `setupSeconds`. A build
/// during which the hypervisor stole CPU time is built again, up to
/// kSetupRepeats extra builds.
void timeSetup(Stack& stack, const std::string& socket,
               std::vector<double>& setupSeconds) {
  int retries = 0;
  for (int i = 0; i < kSetupRepeats;) {
    stack = Stack{};
    const std::int64_t steal = stealTicks();
    const std::int64_t start = nowNs();
    stack = buildServedStack(serviceRuntimeOptions(), kServerWorkers,
                             kConnections, socket);
    const double seconds = static_cast<double>(nowNs() - start) * 1e-9;
    if (stealTicks() != steal && retries++ < kSetupRepeats) continue;
    setupSeconds.push_back(seconds);
    ++i;
  }
}

/// Warm-up, then either the measured window (end-to-end metrics but
/// setup_s) or the traced run: a fifth of `--seconds` untraced and as long
/// traced, with one span per request, then the per-layer loops on `layers`.
template <typename Send>
void measure(const RunOptions& options, Send& send, Stack& stack,
             const Catalog& catalog, LayerInputs& layers, TraceLog* trace,
             Result& result) {
  account(result, runPhase(kWarmupSeconds, kWarmupSeconds, send, nullptr, 0),
          "warm-up");
  runtime::TargetRuntime& runtime = stack.decider();
  const runtime::DecisionCache::Stats warm = cacheStats(runtime, catalog);
  if (trace == nullptr) {
    const Phase window =
        runPhase(options.seconds, kStretch * options.seconds, send, nullptr, 0);
    account(result, window, "window");
    const runtime::DecisionCache::Stats after = cacheStats(runtime, catalog);
    const WindowSummary summary = window.summary();
    result.add("decisions_per_s", summary.decisionsPerSecond, "1/s");
    result.add("latency_p50_us", summary.p50Us, "us");
    result.add("latency_p99_us", summary.p99Us, "us");
    result.note(format("window: %llu requests (the latency samples), %llu "
                       "decisions",
                       static_cast<unsigned long long>(summary.requests),
                       static_cast<unsigned long long>(summary.decisions)));
    result.note(format("slices: %zu of %zu counted; %.2f%% of the CPU time "
                       "was stolen",
                       window.countedSlices(), window.counted.size(),
                       100.0 * static_cast<double>(window.stolenTicks) /
                           (static_cast<double>(window.counted.size()) *
                            cpuTicksPerSlice())));
    result.note(format("decision cache over the window: %llu lookups, hit "
                       "ratio %.4f, %llu evictions",
                       static_cast<unsigned long long>(after.lookups -
                                                       warm.lookups),
                       hitRatio(warm, after),
                       static_cast<unsigned long long>(after.evictions -
                                                       warm.evictions)));
    return;
  }

  const double seconds = std::max(0.5, options.seconds * 0.2);
  const Phase untraced = runPhase(seconds, kStretch * seconds, send, nullptr, 0);
  account(result, untraced, "untraced window");
  const StageSnapshot stagesBefore = snapshotStages(*stack.server);
  const runtime::DecisionCache::Stats before = cacheStats(runtime, catalog);
  const std::uint64_t windowId = SpanBuffer::reserveId();
  const std::int64_t windowStart = nowNs();
  const Phase traced = runPhase(seconds, kStretch * seconds, send, trace, windowId);
  trace->thread(0).recordWithId(windowId, "window", windowStart, nowNs(), 0, 0);
  account(result, traced, "traced window");
  const runtime::DecisionCache::Stats after = cacheStats(runtime, catalog);
  const WindowSummary summary = traced.summary();
  const double lookups = static_cast<double>(after.lookups - before.lookups);
  result.add("cache.hit_ratio", hitRatio(before, after), "ratio");
  result.add("cache.evictions_per_decision",
             lookups > 0.0 ? static_cast<double>(after.evictions -
                                                 before.evictions) /
                                 lookups
                           : 0.0,
             "ratio");
  result.add("ledger.trace_overhead",
             untraced.summary().decisionsPerSecond / summary.decisionsPerSecond,
             "ratio");

  SpanBuffer& spans = trace->thread(0);
  const std::uint64_t root = SpanBuffer::reserveId();
  const std::int64_t layersStart = nowNs();
  layers.budgetSeconds = layerBudget(options.seconds);
  addServerStages(stagesBefore, snapshotStages(*stack.server), summary.p50Us,
                  result);
  result.add("client.ping_us", pingP50Us(stack.clients.front(), 2000), "us");
  measureLayers(layers, spans, root, result);
  spans.recordWithId(root, "layers", layersStart, nowNs(), 0, 0);
}

/// Counts the decisions in `got` that differ from a fresh runtime's
/// decideBatch of the same requests.
void check(Result& result, const Catalog& catalog,
           const std::vector<Request>& requests,
           const std::vector<runtime::Decision>& got) {
  Stack reference =
      buildRuntimeStack(serviceRuntimeOptions(), mca::MachineModel::power9());
  std::string detail;
  const std::uint64_t mismatches =
      countMismatches(*reference.runtime, catalog, requests, got, detail);
  result.attempted += requests.size();
  result.failed += mismatches;
  if (mismatches == 0) {
    result.note(format("check: %zu socket decisions bit-identical to an "
                       "in-process decideBatch",
                       requests.size()));
  } else {
    result.note(format("FAILED check: %llu of %zu socket decisions differ; %s",
                       static_cast<unsigned long long>(mismatches),
                       requests.size(), detail.c_str()));
  }
}

/// After the window: each connection re-sends its first kCheckDecisions
/// decisions (`resend(c, got)` does so and returns the requests they
/// answered) and they are checked. Then, for the untraced run, the stack is
/// torn down and built kSetupRepeats more times, so setup_s is the median
/// over builds made at both ends of the run.
template <typename Resend>
void finish(const RunOptions& options, Stack& stack, const Catalog& catalog,
            Resend resend, std::vector<double>& setupSeconds, Result& result) {
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::vector<runtime::Decision> got;
    try {
      const std::vector<Request> requests = resend(c, got);
      check(result, catalog, requests, got);
    } catch (const std::exception& error) {
      result.attempted += kCheckDecisions;
      result.failed += kCheckDecisions;
      result.note(format("FAILED check: %s", error.what()));
    }
  }
  if (options.traced) return;
  timeSetup(stack, socketPath(), setupSeconds);
  result.add("setup_s", median(setupSeconds), "s");
  result.add("peak_rss_mb", peakRssMb(), "MB");
}

LayerInputs serviceLayers(const Catalog& catalog) {
  LayerInputs layers;
  layers.options = serviceRuntimeOptions();
  layers.model = mca::MachineModel::power9();
  layers.catalog = &catalog;
  return layers;
}

}  // namespace

Result runServeHot(const RunOptions& options, TraceLog* trace) {
  const Catalog catalog = makeCatalog({256, 512, 1024, 2048});
  std::vector<std::vector<Request>> streams;
  for (std::size_t c = 0; c < kConnections; ++c) {
    streams.push_back(zipfianStream(catalog, options.seed + c, 1 << 16));
  }
  Stack stack;
  std::vector<double> setupSeconds;
  timeSetup(stack, socketPath(), setupSeconds);

  std::vector<std::size_t> cursor(kConnections, 0);
  auto send = [&](std::size_t c) -> std::uint64_t {
    const std::vector<Request>& stream = streams[c];
    const Request& request = stream[cursor[c]++ % stream.size()];
    (void)stack.clients[c].decide(catalog.regions[request.region],
                                  catalog.at(request.region, request.size));
    return 1;
  };
  LayerInputs layers = serviceLayers(catalog);
  layers.stream.assign(streams[0].begin(), streams[0].begin() + kLayerRequests);
  layers.blocks = frameStream(catalog, layers.stream, 1, true);

  Result result;
  measure(options, send, stack, catalog, layers, trace, result);
  finish(options, stack, catalog,
         [&](std::size_t c, std::vector<runtime::Decision>& got) {
           const std::vector<Request> requests(
               streams[c].begin(), streams[c].begin() + kCheckDecisions);
           for (const Request& request : requests) {
             got.push_back(stack.clients[c].decide(
                 catalog.regions[request.region],
                 catalog.at(request.region, request.size)));
           }
           return requests;
         },
         setupSeconds, result);
  return result;
}

Result runServeColdBatch(const RunOptions& options, TraceLog* trace) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 64; n <= 16444; n += 4) sizes.push_back(n);
  const Catalog catalog = makeCatalog(std::move(sizes));
  std::vector<std::vector<Block>> frames;
  for (std::size_t c = 0; c < kConnections; ++c) {
    frames.push_back(frameStream(
        catalog, zipfianStream(catalog, options.seed + c, 4096 * kFrameRows),
        kFrameRows, false));
  }
  Stack stack;
  std::vector<double> setupSeconds;
  timeSetup(stack, socketPath(), setupSeconds);

  const std::array<std::string_view, 1> slots{"n"};
  std::vector<std::size_t> cursor(kConnections, 0);
  std::vector<std::vector<runtime::Decision>> replies(kConnections);
  auto send = [&](std::size_t c) -> std::uint64_t {
    const Block& frame = frames[c][cursor[c]++ % frames[c].size()];
    const auto rows = static_cast<std::uint32_t>(frame.sizes.size());
    stack.clients[c].decideBatch(catalog.regions[frame.region], slots, rows,
                                 frame.values, replies[c]);
    return rows;
  };
  LayerInputs layers = serviceLayers(catalog);
  layers.blocks.assign(frames[0].begin(),
                       frames[0].begin() + kLayerRequests / kFrameRows);
  for (const Block& block : layers.blocks) {
    for (const std::uint32_t size : block.sizes) {
      layers.stream.push_back({block.region, size});
    }
  }
  layers.batched = true;
  layers.checkAttribution = true;

  Result result;
  measure(options, send, stack, catalog, layers, trace, result);
  finish(options, stack, catalog,
         [&](std::size_t c, std::vector<runtime::Decision>& got) {
           std::vector<Request> requests;
           std::vector<runtime::Decision> reply;
           for (std::size_t f = 0; requests.size() < kCheckDecisions; ++f) {
             const Block& frame = frames[c][f];
             stack.clients[c].decideBatch(
                 catalog.regions[frame.region], slots,
                 static_cast<std::uint32_t>(frame.sizes.size()), frame.values,
                 reply);
             for (std::size_t row = 0; row < frame.sizes.size(); ++row) {
               requests.push_back({frame.region, frame.sizes[row]});
               got.push_back(reply[row]);
             }
           }
           return requests;
         },
         setupSeconds, result);
  return result;
}

}  // namespace ledger
