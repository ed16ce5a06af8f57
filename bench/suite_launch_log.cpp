// Runs the whole Polybench suite through the target runtime under a chosen
// policy and prints the launch log as CSV — the observability surface a
// production deployment of the paper's framework would scrape (cf. the
// OMPT discussion in §V.A). Not one of the paper's figures; a harness
// utility.
//
// --policy accepts the launch policies (always-cpu | always-gpu |
// model-guided | oracle) and the selection policies (model-compare |
// calibrated, docs/POLICIES.md); a selection name runs model-guided with
// that policy installed in the selector.
//
// Options beyond policy/mode/scale/threads:
//   --jobs J                 benchmark-level concurrency (0 = hardware
//                            threads, 1 = serial); faulty runs are always
//                            serial, see below
//   --no-decision-cache      disable per-region decision memoization
//                            (decision cache capacity 0)
//   --trace-out <file>       attach an obs::TraceSession and write a Chrome
//                            trace_event JSON of the run (forces serial)
//   --stats                  print metrics + prediction-accuracy summary to
//                            stderr after the run (forces serial)
//   --drift-report           print the per-region drift report (EWMA/CUSUM
//                            over prediction error, mispredictions) to
//                            stderr after the run (forces serial; pair with
//                            --policy oracle for misprediction counts)
//   --prom-out <file>        write a Prometheus text exposition (0.0.4) of
//                            the session after the run (forces serial)
//   --stats-file <file>      attach an obs::SnapshotWriter that atomically
//                            rewrites <file> with the stats summary every
//                            --stats-every launches (default 16; forces
//                            serial)
//   --workload W             launch a generated stream instead of one pass
//                            in suite order: uniform | zipfian | bursty over
//                            all suite kernels at the mode/scale size
//                            (forces serial; deterministic by
//                            --workload-seed, default 2019)
//   --workload-requests N    stream length for --workload (default 64)
//   --batch B                pre-decide each group of B upcoming stream
//                            launches through decideBatch before launching
//                            them, so the per-launch decisions hit the
//                            memoization cache (requires --workload; the
//                            log's decision_cache_hit column shows the
//                            effect)
//   --record-trace <file>    write the generated --workload stream as a
//                            versioned workload trace file (#!osel-trace
//                            header carrying the generator seed) for later
//                            replay through suite_batch_decide --trace-in
//                            or loadgen_oseld --trace-in (requires
//                            --workload)
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/common/platform.h"
#include "bench/common/policy_flag.h"
#include "bench/common/thread_pool.h"
#include "compiler/compiler.h"
#include "obs/export.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "runtime/target_runtime.h"
#include "support/cli.h"
#include "support/faultinject.h"
#include "workload/workload.h"

namespace {

using namespace osel;

/// Launches every kernel of `benchmark` through `rt` under `policy`.
void launchBenchmark(runtime::TargetRuntime& rt,
                     const polybench::Benchmark& benchmark,
                     polybench::Mode mode, std::int64_t scale,
                     runtime::Policy policy) {
  const std::int64_t n = bench::scaledSize(benchmark, mode, scale);
  const auto bindings = benchmark.bindings(n);
  ir::ArrayStore store = benchmark.allocate(bindings);
  polybench::initializeInputs(benchmark, bindings, store);
  for (const auto& kernel : benchmark.kernels())
    (void)rt.launch(kernel.name, bindings, store, policy);
}

/// Launches a --workload stream: kernels drawn by the generator, each
/// benchmark's data environment allocated lazily on first touch and reused
/// across the stream. With batch > 0, every group of `batch` upcoming
/// launches is pre-decided through decideBatch first, so the launches'
/// decisions come from the memoization cache.
void launchStream(runtime::TargetRuntime& rt,
                  const std::vector<workload::Item>& stream,
                  const std::map<std::string, const polybench::Benchmark*>&
                      benchmarkByKernel,
                  runtime::Policy policy, std::size_t batch) {
  std::map<std::string, ir::ArrayStore> stores;
  std::vector<runtime::DecideRequest> requests;
  std::vector<runtime::Decision> decisions;
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    if (batch > 0 && pos % batch == 0) {
      const std::size_t n = std::min(batch, stream.size() - pos);
      requests.resize(n);
      decisions.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        requests[i] = {stream[pos + i].region, &stream[pos + i].bindings};
      }
      rt.decideBatch(requests, decisions);
    }
    const workload::Item& item = stream[pos];
    const polybench::Benchmark& benchmark = *benchmarkByKernel.at(item.region);
    auto [it, inserted] = stores.try_emplace(benchmark.name());
    if (inserted) {
      it->second = benchmark.allocate(item.bindings);
      polybench::initializeInputs(benchmark, item.bindings, it->second);
    }
    (void)rt.launch(item.region, item.bindings, it->second, policy);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto scale = cl.intOption("scale", 4);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));
  // --gpu-fault-rate R injects transient GPU launch failures with
  // probability R, exercising the retry/fallback columns of the log.
  const double gpuFaultRate = cl.doubleOption("gpu-fault-rate", 0.0);
  if (gpuFaultRate < 0.0 || gpuFaultRate > 1.0) {
    std::fprintf(stderr, "suite_launch_log: --gpu-fault-rate must be in [0, 1], got %g\n",
                 gpuFaultRate);
    return 2;
  }
  if (gpuFaultRate > 0.0) {
    support::faultInjector().arm(
        support::faultpoints::kGpuLaunch,
        {.kind = support::FaultKind::TransientLaunch,
         .probability = gpuFaultRate,
         .seed = static_cast<std::uint64_t>(cl.intOption("fault-seed", 2019))});
  }
  // --policy accepts launch-policy names and selection-policy names
  // (docs/POLICIES.md); a selection name runs ModelGuided with that policy
  // installed in the selector. Unknown names are a usage error.
  const auto policySelection =
      bench::parsePolicyFlag(cl, "suite_launch_log", true);
  if (!policySelection.has_value()) return 2;
  const runtime::Policy policy = policySelection->launch;
  const auto mode = cl.stringOption("mode").value_or("test") == "benchmark"
                        ? polybench::Mode::Benchmark
                        : polybench::Mode::Test;
  const std::string workloadName = cl.stringOption("workload").value_or("");
  const auto workloadRequests =
      static_cast<std::size_t>(cl.intOption("workload-requests", 64));
  const auto workloadSeed =
      static_cast<std::uint64_t>(cl.intOption("workload-seed", 2019));
  const auto batch = static_cast<std::size_t>(cl.intOption("batch", 0));
  if (!workloadName.empty() && workloadRequests == 0) {
    std::fprintf(stderr,
                 "suite_launch_log: --workload-requests must be >= 1\n");
    return 2;
  }
  if (batch > 0 && workloadName.empty()) {
    std::fprintf(stderr, "suite_launch_log: --batch requires --workload\n");
    return 2;
  }
  const std::string recordTrace = cl.stringOption("record-trace").value_or("");
  if (!recordTrace.empty() && workloadName.empty()) {
    std::fprintf(stderr,
                 "suite_launch_log: --record-trace requires --workload\n");
    return 2;
  }

  // Compile the whole suite into one PAD, then drive the runtime.
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const auto& kernel : benchmark.kernels()) regions.push_back(kernel);
  }
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);

  runtime::RuntimeOptions options;
  options.selector.cpuThreads = threads;
  options.selector.policy = policySelection->selection;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.cpuSimThreads = threads;
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  if (cl.hasFlag("no-decision-cache")) options.decisionCacheCapacity = 0;

  const std::string traceOut = cl.stringOption("trace-out").value_or("");
  const bool wantStats = cl.hasFlag("stats");
  const bool wantDrift = cl.hasFlag("drift-report");
  const std::string promOut = cl.stringOption("prom-out").value_or("");
  const std::string statsFile = cl.stringOption("stats-file").value_or("");
  const auto statsEvery = cl.intOption("stats-every", 16);
  if (!statsFile.empty() && statsEvery <= 0) {
    std::fprintf(stderr, "suite_launch_log: --stats-every must be > 0, got %lld\n",
                 static_cast<long long>(statsEvery));
    return 2;
  }
  obs::TraceSession session;
  if (!traceOut.empty() || wantStats || wantDrift || !promOut.empty() ||
      !statsFile.empty()) {
    options.trace = &session;
    session.observeFaultInjector();
  }
  // Periodic snapshot: the writer re-renders the stats summary and
  // atomically replaces the file every N launches.
  std::unique_ptr<obs::SnapshotWriter> snapshotWriter;
  if (!statsFile.empty()) {
    snapshotWriter = std::make_unique<obs::SnapshotWriter>(
        obs::SnapshotOptions{statsFile,
                             static_cast<std::uint64_t>(statsEvery)},
        [&session] { return obs::renderStatsSummary(session); });
    session.attachSnapshotWriter(snapshotWriter.get());
  }

  const auto jobs = static_cast<unsigned>(cl.intOption("jobs", 0));
  const std::vector<polybench::Benchmark>& suite = polybench::suite();

  // Fault injection draws from one global seeded stream and feeds shared
  // circuit-breaker state, so the fault sequence is launch-order dependent:
  // faulty runs stay on the serial single-runtime path for reproducibility.
  // A trace session likewise records one runtime's pipeline, so observed
  // runs are serial too. When the user asked for parallel jobs, say why the
  // request is being overridden instead of silently ignoring it (see
  // docs/PERFORMANCE.md §4 for the full interaction table).
  // A --workload stream is one ordered sequence over one runtime, so it is
  // serial by construction, like the faulty and observed runs.
  if (gpuFaultRate > 0.0 || jobs == 1 || options.trace != nullptr ||
      !workloadName.empty()) {
    if (jobs > 1) {
      const char* cause =
          gpuFaultRate > 0.0
              ? "--gpu-fault-rate needs the launch-order-deterministic fault "
                "stream"
          : !workloadName.empty()
              ? "--workload replays one ordered stream through one runtime"
              : "observability output (--trace-out/--stats/--drift-report/"
                "--prom-out/--stats-file) records a single runtime's pipeline";
      std::fprintf(stderr,
                   "suite_launch_log: running serial because %s; ignoring "
                   "--jobs %u\n",
                   cause, jobs);
    }
    runtime::TargetRuntime rt(std::move(db), options);
    for (ir::TargetRegion& region : regions)
      rt.registerRegion(std::move(region));
    if (!workloadName.empty()) {
      const workload::Shape shape =
          workload::parseShape(workloadName);  // throws on unknown
      std::vector<workload::Candidate> candidates;
      std::map<std::string, const polybench::Benchmark*> benchmarkByKernel;
      for (const polybench::Benchmark& benchmark : suite) {
        const std::int64_t n = bench::scaledSize(benchmark, mode, scale);
        const symbolic::Bindings bindings = benchmark.bindings(n);
        for (const auto& kernel : benchmark.kernels()) {
          candidates.push_back({kernel.name, {bindings}});
          benchmarkByKernel[kernel.name] = &benchmark;
        }
      }
      workload::GeneratorOptions genOptions;
      genOptions.seed = workloadSeed;
      workload::Generator generator(shape, std::move(candidates), genOptions);
      const std::vector<workload::Item> stream =
          generator.take(workloadRequests);
      if (!recordTrace.empty()) {
        std::FILE* out = std::fopen(recordTrace.c_str(), "w");
        if (out == nullptr) {
          std::fprintf(stderr,
                       "suite_launch_log: cannot open %s for writing\n",
                       recordTrace.c_str());
          return 1;
        }
        const std::string text =
            workload::serializeTrace(stream, {.seed = workloadSeed});
        std::fputs(text.c_str(), out);
        std::fclose(out);
        std::fprintf(stderr,
                     "suite_launch_log: recorded %zu-item %s trace to %s\n",
                     stream.size(), workloadName.c_str(), recordTrace.c_str());
      }
      launchStream(rt, stream, benchmarkByKernel, policy, batch);
    } else {
      for (const polybench::Benchmark& benchmark : suite)
        launchBenchmark(rt, benchmark, mode, scale, policy);
    }
    std::fputs(runtime::renderLogCsv(rt.log()).c_str(), stdout);
    if (!traceOut.empty()) {
      std::FILE* out = std::fopen(traceOut.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "suite_launch_log: cannot open %s for writing\n",
                     traceOut.c_str());
        return 1;
      }
      std::fputs(obs::renderChromeTrace(session).c_str(), out);
      std::fclose(out);
      std::fprintf(stderr, "suite_launch_log: wrote %llu trace events to %s\n",
                   static_cast<unsigned long long>(session.recorded()),
                   traceOut.c_str());
    }
    if (wantStats) std::fputs(obs::renderStatsSummary(session).c_str(), stderr);
    if (wantDrift) std::fputs(obs::renderDriftReport(session).c_str(), stderr);
    if (!promOut.empty()) {
      std::FILE* out = std::fopen(promOut.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "suite_launch_log: cannot open %s for writing\n",
                     promOut.c_str());
        return 1;
      }
      std::fputs(obs::renderPrometheus(session).c_str(), out);
      std::fclose(out);
    }
    if (snapshotWriter != nullptr) {
      // Final state beats a mid-run snapshot: flush once more at exit.
      if (!snapshotWriter->flush()) {
        std::fprintf(stderr, "suite_launch_log: cannot write %s\n",
                     statsFile.c_str());
        return 1;
      }
    }
    return 0;
  }

  // Healthy path: one self-contained runtime per benchmark (own PAD copy,
  // simulators, caches), run concurrently; logs concatenate in suite order,
  // so the CSV is byte-identical to the serial run.
  bench::ThreadPool pool(jobs);
  std::vector<std::vector<runtime::LaunchRecord>> logs(suite.size());
  pool.parallelFor(suite.size(), [&](std::size_t i) {
    const polybench::Benchmark& benchmark = suite[i];
    pad::AttributeDatabase dbCopy = db;
    runtime::TargetRuntime rt(std::move(dbCopy), options);
    for (const auto& kernel : benchmark.kernels()) rt.registerRegion(kernel);
    launchBenchmark(rt, benchmark, mode, scale, policy);
    logs[i] = rt.log();
  });
  std::vector<runtime::LaunchRecord> merged;
  for (const auto& log : logs)
    merged.insert(merged.end(), log.begin(), log.end());
  std::fputs(runtime::renderLogCsv(merged).c_str(), stdout);
  return 0;
}
