// loadgen_oseld — open-loop load generator for the oseld wire protocol.
//
// Sweeps connection counts × frame batch sizes over the workload::
// generators (or a recorded trace) against a live daemon — or, by default,
// an in-process loopback service::Server — and reports decisions/sec plus
// p50/p99/p999 of the amortized per-decision exchange latency. This is the
// socket-layer counterpart of suite_batch_decide: the same streams, but
// every decision crosses the wire. docs/SERVICE.md §Benchmarking shows
// sample output.
//
// Options:
//   --socket PATH     aim at an external daemon instead of the loopback
//                     server (then --check assumes it runs the default
//                     oseld model configuration)
//   --clients LIST    comma list of concurrent connections
//                     (default 1,8,32,64)
//   --batch LIST      comma list of rows per frame; 1 = scalar
//                     DecideRequest frames (default 1,64)
//   --requests N      decisions per client per run (default 4096)
//   --workload W      uniform | zipfian | bursty (default uniform; bursty
//                     honors gaps, which open-loop throughput then reflects)
//   --seed S          generator seed (default 2019); client c uses S + c so
//                     connections do not send identical streams
//   --zipf-s S        Zipf exponent (default 1.2)
//   --trace-in FILE   replay a versioned workload trace (#!osel-trace;
//                     mismatched versions are rejected) instead of
//                     generating
//   --check           also decide the whole stream through an identically
//                     configured in-process TargetRuntime and fail unless
//                     every socket decision is bit-identical
//   --policy P        selection policy for the loopback server:
//                     model-compare (default) | calibrated
//                     (docs/POLICIES.md). Rejected with
//                     --socket (configure an external daemon via
//                     `oseld --policy`) and, for calibrated, with
//                     --check (the bit-identity contract is defined
//                     against the deterministic model-compare choice)
//   --guard-min-per-sec X    exit 1 unless the best batched row sustains
//                            at least X decisions/sec
//   --guard-batch-speedup X  exit 1 unless the largest batch size sustains
//                            at least X times the batch=1 throughput at
//                            the same client count (the perf-smoke guard)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/common/policy_flag.h"
#include "compiler/compiler.h"
#include "obs/quantile.h"
#include "polybench/polybench.h"
#include "runtime/batch.h"
#include "service/client.h"
#include "service/server.h"
#include "support/cli.h"
#include "workload/workload.h"

namespace {

using namespace osel;
using Clock = std::chrono::steady_clock;

constexpr std::array<std::int64_t, 4> kSizes{256, 512, 1024, 2048};

std::vector<workload::Candidate> makeCandidates() {
  std::vector<workload::Candidate> candidates;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    std::vector<symbolic::Bindings> choices;
    choices.reserve(kSizes.size());
    for (const std::int64_t n : kSizes) {
      choices.push_back(benchmark.bindings(n));
    }
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      candidates.push_back({kernel.name, choices});
    }
  }
  return candidates;
}

/// The model configuration both the loopback server and the --check
/// reference runtime share (and `oseld`'s defaults match).
runtime::RuntimeOptions referenceOptions() {
  runtime::RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.cpuSimThreads = 160;
  return options;
}

std::vector<ir::TargetRegion> suiteRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  return regions;
}

pad::AttributeDatabase makeDatabase() {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  return compiler::compileAll(suiteRegions(), models);
}

/// One wire-ready DecideBatch frame: up to `batch` rows for a single
/// region, already slot-major. `positions` maps frame row -> stream index
/// so --check can restore stream order. Views alias the source item vector,
/// which outlives the run.
struct PreparedFrame {
  std::string_view region;
  std::vector<std::string_view> slots;
  std::uint32_t rows = 0;
  std::vector<std::int64_t> values;
  std::vector<std::size_t> positions;
  double gapSeconds = 0.0;  ///< summed pacing gaps of the frame's items
};

/// Batches the stream the way a real batching client would: per-region
/// accumulation in stream order, flushing a DecideBatch frame whenever a
/// region collects `batch` rows (the wire carries one region per frame),
/// with partial frames flushed at end of stream. Done before the clock
/// starts: the timed loop should measure framing + syscalls + server work,
/// not this bookkeeping.
std::vector<PreparedFrame> prepareFrames(
    const std::vector<workload::Item>& items, std::size_t batch) {
  std::vector<PreparedFrame> frames;
  frames.reserve(items.size() / batch + 1);
  std::map<std::string_view, std::vector<std::size_t>> pending;
  const auto flush = [&](std::string_view region,
                         std::vector<std::size_t>& rows) {
    PreparedFrame frame;
    frame.region = region;
    frame.rows = static_cast<std::uint32_t>(rows.size());
    for (const auto& [symbol, value] : items[rows.front()].bindings) {
      frame.slots.push_back(symbol);
    }
    frame.values.assign(frame.slots.size() * rows.size(), 0);
    for (std::size_t row = 0; row < rows.size(); ++row) {
      const symbolic::Bindings& bindings = items[rows[row]].bindings;
      frame.gapSeconds += items[rows[row]].gapSeconds;
      for (std::size_t slot = 0; slot < frame.slots.size(); ++slot) {
        frame.values[slot * rows.size() + row] =
            bindings.at(std::string(frame.slots[slot]));
      }
    }
    frame.positions = std::move(rows);
    rows.clear();
    frames.push_back(std::move(frame));
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::vector<std::size_t>& rows = pending[items[i].region];
    rows.push_back(i);
    if (rows.size() >= batch) flush(items[i].region, rows);
  }
  for (auto& [region, rows] : pending) {
    if (!rows.empty()) flush(region, rows);
  }
  return frames;
}

/// Distinct per-request trace ids for --check: the client verifies every
/// reply echoes its request's id, so a pass proves end-to-end correlation,
/// not just that a block survived the round trip. Every 16th request is
/// marked sampled to exercise server-side span + slow-ring capture too.
/// traceBase == 0 sends zeroed blocks (the timed sweep runs).
service::TraceContextBlock makeTrace(std::uint64_t id) {
  service::TraceContextBlock block;
  block.traceId = id;
  block.flags = id % 16 == 0 ? service::kTraceFlagSampled : 0u;
  return block;
}

/// Scalar mode: one DecideRequest frame per item, one latency sample each.
void driveScalar(service::Client& client,
                 const std::vector<workload::Item>& items,
                 std::vector<double>& latencies,
                 std::vector<runtime::Decision>* decisions,
                 std::uint64_t traceBase = 0) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    const workload::Item& item = items[i];
    if (item.gapSeconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(item.gapSeconds));
    }
    service::TraceContextBlock trace;
    if (traceBase != 0) trace = makeTrace(traceBase + i);
    const Clock::time_point t0 = Clock::now();
    runtime::Decision decision = client.decide(
        item.region, item.bindings, traceBase != 0 ? &trace : nullptr);
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (decisions != nullptr) (*decisions)[i] = std::move(decision);
  }
}

/// Batched mode: sends the prepared frames, recording each frame's
/// amortized per-decision latency; decisions land at their stream positions
/// when non-null.
void driveBatched(service::Client& client,
                  const std::vector<PreparedFrame>& frames,
                  std::vector<double>& latencies,
                  std::vector<runtime::Decision>* decisions,
                  std::uint64_t traceBase = 0) {
  std::vector<runtime::Decision> frameDecisions;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const PreparedFrame& frame = frames[f];
    if (frame.gapSeconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(frame.gapSeconds));
    }
    service::TraceContextBlock trace;
    if (traceBase != 0) trace = makeTrace(traceBase + f);
    const Clock::time_point t0 = Clock::now();
    client.decideBatch(frame.region, frame.slots, frame.rows, frame.values,
                       frameDecisions, traceBase != 0 ? &trace : nullptr);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    latencies.push_back(dt / static_cast<double>(frame.rows));
    if (decisions != nullptr) {
      for (std::size_t row = 0; row < frame.positions.size(); ++row) {
        (*decisions)[frame.positions[row]] = std::move(frameDecisions[row]);
      }
    }
  }
}

struct RunResult {
  double decisionsPerSec = 0.0;
  double p50Us = 0.0;
  double p99Us = 0.0;
  double p999Us = 0.0;
  bool failed = false;
};

std::vector<workload::Item> streamForClient(
    const std::vector<workload::Item>* trace,
    const std::vector<workload::Candidate>& candidates, workload::Shape shape,
    std::size_t requests, std::uint64_t seed, double zipfS,
    std::size_t clientIndex) {
  if (trace != nullptr) {
    // Every client replays the recorded trace, rotated so connections do
    // not move in lockstep, cycling when the trace is shorter than the run.
    std::vector<workload::Item> items;
    items.reserve(requests);
    const std::size_t offset = (clientIndex * 17) % trace->size();
    for (std::size_t i = 0; i < requests; ++i) {
      items.push_back((*trace)[(offset + i) % trace->size()]);
    }
    return items;
  }
  workload::GeneratorOptions options;
  options.seed = seed + clientIndex;
  options.zipfExponent = zipfS;
  workload::Generator generator(shape, candidates, options);
  return generator.take(requests);
}

RunResult runSweepPoint(const std::string& socketPath,
                        const std::vector<std::vector<workload::Item>>& streams,
                        std::size_t clients, std::size_t batch,
                        std::size_t requests) {
  // Streams are pregenerated and every connection is established before the
  // clock starts, so the wall window times only the wire exchanges.
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> failed{false};
  std::latch connected(static_cast<std::ptrdiff_t>(clients));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::optional<service::Client> client;
      std::vector<PreparedFrame> frames;
      try {
        if (batch > 1) frames = prepareFrames(streams[c], batch);
        client.emplace(service::Client::connect(socketPath));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "loadgen_oseld: client %zu connect: %s\n", c,
                     error.what());
        failed.store(true);
      }
      connected.count_down();
      if (!client.has_value()) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        latencies[c].reserve(requests / std::max<std::size_t>(1, batch) + 1);
        if (batch > 1) {
          driveBatched(*client, frames, latencies[c], nullptr);
        } else {
          driveScalar(*client, streams[c], latencies[c], nullptr);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "loadgen_oseld: client %zu: %s\n", c,
                     error.what());
        failed.store(true);
      }
    });
  }
  connected.wait();
  const Clock::time_point wallStart = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const double wallSeconds =
      std::chrono::duration<double>(Clock::now() - wallStart).count();

  std::vector<double> merged;
  for (std::vector<double>& perClient : latencies) {
    merged.insert(merged.end(), perClient.begin(), perClient.end());
  }
  std::sort(merged.begin(), merged.end());
  RunResult result;
  result.failed = failed.load();
  result.decisionsPerSec =
      wallSeconds > 0.0
          ? static_cast<double>(clients * requests) / wallSeconds
          : 0.0;
  result.p50Us = obs::percentileOfSorted(merged, 0.50) * 1e6;
  result.p99Us = obs::percentileOfSorted(merged, 0.99) * 1e6;
  result.p999Us = obs::percentileOfSorted(merged, 0.999) * 1e6;
  return result;
}

/// --check: every decision from the socket must be bit-identical to the
/// same stream through an in-process decideBatch (device, validity,
/// diagnostic, and bit-exact model predictions; overheadSeconds is wall
/// time and excluded, as in the in-process equivalence contract).
bool checkBitIdentical(const std::string& socketPath,
                       const std::vector<workload::Item>& items,
                       std::size_t batch) {
  std::vector<runtime::Decision> socketDecisions(items.size());
  std::vector<double> scratch;
  service::Client client = service::Client::connect(socketPath);
  // The client asserts every reply echoes its request's trace id, so the
  // check also proves end-to-end correlation.
  driveBatched(client, prepareFrames(items, std::max<std::size_t>(batch, 2)),
               scratch, &socketDecisions, 1);

  runtime::TargetRuntime reference(makeDatabase(), referenceOptions());
  for (ir::TargetRegion& region : suiteRegions()) {
    reference.registerRegion(std::move(region));
  }
  std::vector<runtime::DecideRequest> requests(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    requests[i] = {items[i].region, &items[i].bindings};
  }
  std::vector<runtime::Decision> expected(items.size());
  reference.decideBatch(requests, expected);

  for (std::size_t i = 0; i < items.size(); ++i) {
    const runtime::Decision& socket = socketDecisions[i];
    const runtime::Decision& local = expected[i];
    if (socket.device != local.device || socket.valid != local.valid ||
        socket.diagnostic != local.diagnostic ||
        std::memcmp(&socket.cpu.seconds, &local.cpu.seconds,
                    sizeof(double)) != 0 ||
        std::memcmp(&socket.gpu.totalSeconds, &local.gpu.totalSeconds,
                    sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "loadgen_oseld: check FAILED at item %zu (%s): socket "
                   "{%d %d %.17g %.17g} vs in-process {%d %d %.17g %.17g}\n",
                   i, items[i].region.c_str(),
                   static_cast<int>(socket.device),
                   static_cast<int>(socket.valid), socket.cpu.seconds,
                   socket.gpu.totalSeconds, static_cast<int>(local.device),
                   static_cast<int>(local.valid), local.cpu.seconds,
                   local.gpu.totalSeconds);
      return false;
    }
  }
  std::printf("check: PASS (%zu socket decisions bit-identical to "
              "in-process decideBatch; trace-context echo verified on every "
              "frame)\n",
              items.size());
  return true;
}

std::vector<std::size_t> parseList(const std::string& text,
                                   const char* flag) {
  std::vector<std::size_t> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(start, comma - start);
    start = comma + 1;
    if (field.empty()) continue;
    const long long value = std::atoll(field.c_str());
    if (value <= 0) {
      std::fprintf(stderr, "loadgen_oseld: bad %s entry '%s'\n", flag,
                   field.c_str());
      return {};
    }
    values.push_back(static_cast<std::size_t>(value));
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const support::CommandLine cl = support::CommandLine::parse(argc, argv);
  const std::string externalSocket = cl.stringOption("socket").value_or("");
  const auto requests = static_cast<std::size_t>(cl.intOption("requests", 4096));
  const auto seed = static_cast<std::uint64_t>(cl.intOption("seed", 2019));
  const double zipfS = cl.doubleOption("zipf-s", 1.2);
  const std::string workloadName =
      cl.stringOption("workload").value_or("uniform");
  const std::string traceIn = cl.stringOption("trace-in").value_or("");
  const bool check = cl.hasFlag("check");
  const double guardMinPerSec = cl.doubleOption("guard-min-per-sec", 0.0);
  const double guardBatchSpeedup =
      cl.doubleOption("guard-batch-speedup", 0.0);
  if (requests == 0) {
    std::fprintf(stderr, "loadgen_oseld: --requests must be >= 1\n");
    return 2;
  }
  const std::vector<std::size_t> clientCounts =
      parseList(cl.stringOption("clients").value_or("1,8,32,64"), "--clients");
  const std::vector<std::size_t> batchSizes =
      parseList(cl.stringOption("batch").value_or("1,64"), "--batch");
  if (clientCounts.empty() || batchSizes.empty()) return 2;
  // Decide-only bench: --policy takes selection-policy names and applies to
  // the loopback server's selector.
  const auto policySelection = bench::parsePolicyFlag(cl, "loadgen_oseld", false);
  if (!policySelection.has_value()) return 2;
  if (policySelection->selection != nullptr) {
    if (!externalSocket.empty()) {
      std::fprintf(stderr,
                   "loadgen_oseld: --policy configures the loopback server; "
                   "start the external daemon with `oseld --policy` instead\n");
      return 2;
    }
    if (check && policySelection->selection->kind() !=
                     runtime::policy::PolicyKind::ModelCompare) {
      // The --check contract is bit-identity against an in-process
      // model-compare decideBatch; a calibrated server may refit its
      // per-region factors mid-stream and diverge from it by design, so the
      // combination is a usage error.
      std::fprintf(stderr,
                   "loadgen_oseld: --check requires the model-compare "
                   "policy\n");
      return 2;
    }
  }

  workload::Shape shape = workload::Shape::Uniform;
  std::vector<workload::Item> traceItems;
  const std::vector<workload::Item>* trace = nullptr;
  try {
    if (!traceIn.empty()) {
      std::FILE* in = std::fopen(traceIn.c_str(), "rb");
      if (in == nullptr) {
        std::fprintf(stderr, "loadgen_oseld: cannot open %s\n",
                     traceIn.c_str());
        return 2;
      }
      std::string text;
      char buffer[4096];
      std::size_t got = 0;
      while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
        text.append(buffer, got);
      }
      std::fclose(in);
      workload::TraceHeader header;
      traceItems = workload::parseTrace(text, &header);  // rejects foreign versions
      if (traceItems.empty()) {
        std::fprintf(stderr, "loadgen_oseld: %s holds no items\n",
                     traceIn.c_str());
        return 2;
      }
      trace = &traceItems;
      std::fprintf(stderr,
                   "loadgen_oseld: replaying %zu items from %s (format v%u, "
                   "seed %llu)\n",
                   traceItems.size(), traceIn.c_str(), header.version,
                   static_cast<unsigned long long>(header.seed));
    } else {
      shape = workload::parseShape(workloadName);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loadgen_oseld: %s\n", error.what());
    return 2;
  }

  // Loopback default: an in-process Server wired exactly like oseld.
  std::unique_ptr<service::Server> loopback;
  std::string socketPath = externalSocket;
  if (socketPath.empty()) {
    service::ServiceOptions serviceOptions;
    serviceOptions.socketPath = "/tmp/loadgen_oseld_" +
                                std::to_string(::getpid()) + ".sock";
    serviceOptions.workerThreads =
        *std::max_element(clientCounts.begin(), clientCounts.end());
    serviceOptions.maxPendingConnections = serviceOptions.workerThreads + 8;
    runtime::RuntimeOptions loopbackOptions = referenceOptions();
    loopbackOptions.selector.policy = policySelection->selection;
    loopback = std::make_unique<service::Server>(
        makeDatabase(), loopbackOptions, serviceOptions);
    for (ir::TargetRegion& region : suiteRegions()) {
      loopback->registerRegion(std::move(region));
    }
    try {
      loopback->start();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "loadgen_oseld: cannot start loopback server: %s\n",
                   error.what());
      return 1;
    }
    socketPath = serviceOptions.socketPath;
  }

  // Pregenerate every client's stream once: generation stays outside the
  // timed window, and the same streams feed every sweep point so rows are
  // comparable.
  const std::vector<workload::Candidate> candidates =
      trace != nullptr ? std::vector<workload::Candidate>{} : makeCandidates();
  const std::size_t maxClients =
      *std::max_element(clientCounts.begin(), clientCounts.end());
  const std::size_t largestBatch =
      *std::max_element(batchSizes.begin(), batchSizes.end());
  std::vector<std::vector<workload::Item>> streams;
  streams.reserve(maxClients);
  for (std::size_t c = 0; c < maxClients; ++c) {
    streams.push_back(
        streamForClient(trace, candidates, shape, requests, seed, zipfS, c));
  }

  int exitCode = 0;
  if (check) {
    try {
      if (!checkBitIdentical(socketPath, streams[0], largestBatch)) {
        exitCode = 1;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "loadgen_oseld: check errored: %s\n", error.what());
      exitCode = 1;
    }
  }

  // Warm pass: replay client 0's stream batched once so every sweep row
  // (including the first) measures the server's steady state, not cold
  // worker arenas and reply buffers.
  try {
    service::Client warm = service::Client::connect(socketPath);
    std::vector<double> scratch;
    driveBatched(warm,
                 prepareFrames(streams[0],
                               std::max<std::size_t>(largestBatch, 2)),
                 scratch, nullptr);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loadgen_oseld: warm-up failed: %s\n", error.what());
    return 1;
  }

  std::printf("workload  clients  batch  decisions/s      p50(us)    p99(us)   p999(us)\n");
  // best/baseline per client count feed the --guard-* checks.
  std::map<std::size_t, double> singleFrameRate;
  std::map<std::size_t, double> largestBatchRate;
  double bestBatched = 0.0;
  const char* streamName =
      trace != nullptr ? "trace" : workload::toString(shape).data();
  for (const std::size_t clients : clientCounts) {
    for (const std::size_t batch : batchSizes) {
      const RunResult result =
          runSweepPoint(socketPath, streams, clients, batch, requests);
      if (result.failed) {
        std::fprintf(stderr, "loadgen_oseld: run failed (clients=%zu "
                             "batch=%zu)\n",
                     clients, batch);
        exitCode = 1;
        continue;
      }
      std::printf("%-8s  %7zu  %5zu  %11.0f  %11.2f  %9.2f  %9.2f\n",
                  streamName, clients, batch, result.decisionsPerSec,
                  result.p50Us, result.p99Us, result.p999Us);
      std::fflush(stdout);
      if (batch == 1) singleFrameRate[clients] = result.decisionsPerSec;
      if (batch == largestBatch) {
        largestBatchRate[clients] = result.decisionsPerSec;
      }
      if (batch > 1) bestBatched = std::max(bestBatched, result.decisionsPerSec);
    }
  }

  if (guardBatchSpeedup > 0.0) {
    for (const auto& [clients, single] : singleFrameRate) {
      const auto batched = largestBatchRate.find(clients);
      if (batched == largestBatchRate.end() || single <= 0.0) continue;
      const double speedup = batched->second / single;
      if (speedup < guardBatchSpeedup) {
        std::fprintf(stderr,
                     "loadgen_oseld: GUARD FAILED: batch=%zu at %zu clients "
                     "is %.2fx single-frame throughput, need >= %.2fx\n",
                     largestBatch, clients, speedup, guardBatchSpeedup);
        exitCode = 1;
      } else {
        std::printf("guard: batch=%zu at %zu clients sustains %.2fx "
                    "single-frame throughput (>= %.2fx)\n",
                    largestBatch, clients, speedup, guardBatchSpeedup);
      }
    }
  }
  if (guardMinPerSec > 0.0) {
    if (bestBatched < guardMinPerSec) {
      std::fprintf(stderr,
                   "loadgen_oseld: GUARD FAILED: best batched throughput "
                   "%.0f/s under the %.0f/s floor\n",
                   bestBatched, guardMinPerSec);
      exitCode = 1;
    } else {
      std::printf("guard: best batched throughput %.0f/s clears the %.0f/s "
                  "floor\n",
                  bestBatched, guardMinPerSec);
    }
  }

  if (loopback != nullptr) loopback->stop();
  return exitCode;
}
