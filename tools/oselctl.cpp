// oselctl — command-line front end to the osel framework.
//
//   oselctl list                          all benchmarks and kernels
//   oselctl inspect  <kernel>             region IR, IPDA dump, loadout, MCA
//   oselctl decide   <kernel> [opts]      evaluate both models and choose
//   oselctl measure  <kernel> [opts]      ground-truth device simulations
//   oselctl pad      [<kernel>...]        print serialized PAD entries
//   oselctl emit     <kernel>             print a kernel as .osel source
//   oselctl trace    <benchmark> [opts]   run through the target runtime and
//                                         print a Chrome trace_event JSON
//   oselctl stats    <benchmark> [opts]   run and print metrics + per-region
//                                         prediction-accuracy summary
//                                         (--prom: Prometheus exposition)
//   oselctl explain  <kernel> [opts]      run and print the latest decision's
//                                         model-term breakdown (--json: all
//                                         buffered records as JSON)
//   oselctl drift    <benchmark> [opts]   run under the Oracle policy and
//                                         print the per-region drift report
//   oselctl ping --socket PATH            probe a live oseld daemon
//   oselctl slow --socket PATH            the daemon's slow-request capture
//                                         as JSONL wide events
//   oselctl top  --socket PATH            live dashboard: decisions/sec,
//                                         per-stage latency quantiles,
//                                         shed/drift/refit counters
//
// `decide` and `stats` accept --socket PATH to talk to a live oseld over
// its wire protocol instead of evaluating in-process (docs/SERVICE.md).
// Socket-mode exit codes: 0 ok, 2 usage, 3 could not connect.
//
// Common options: --n <size> (default: the kernel's test size),
// --threads <count> (default 160), --platform v100|k80 (default v100),
// --file <path.osel> (load kernels from a kernel-language file instead of
// the built-in Polybench suite; see examples/kernels/),
// --policy <name> (in-process selection policy; docs/POLICIES.md).
// trace/stats/explain/drift options: --repeat <R> launches per kernel
// (default 3, so the decision cache gets hits), --gpu-fault-rate <p> arms
// transient GPU launch faults to exercise retry/fallback spans,
// --out <file> (trace: write the JSON there instead of stdout).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "frontend/printer.h"
#include "cpusim/cpu_simulator.h"
#include "gpusim/gpu_simulator.h"
#include "ipda/ipda.h"
#include "mca/lowering.h"
#include "mca/pipeline_sim.h"
#include "obs/export.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "polybench/polybench.h"
#include "runtime/selector.h"
#include "runtime/target_runtime.h"
#include "service/client.h"
#include "support/cli.h"
#include "support/faultinject.h"
#include "support/format.h"

namespace {

using namespace osel;

struct KernelRef {
  const polybench::Benchmark* benchmark = nullptr;  // null for file kernels
  const ir::TargetRegion* region = nullptr;
};

/// Kernels loaded via --file live here for the process lifetime.
std::vector<ir::TargetRegion>& fileKernels() {
  static std::vector<ir::TargetRegion> kernels;
  return kernels;
}

KernelRef findKernel(const std::string& name) {
  for (const ir::TargetRegion& kernel : fileKernels()) {
    if (kernel.name == name) return {nullptr, &kernel};
  }
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      if (kernel.name == name) return {&benchmark, &kernel};
    }
  }
  return {};
}

struct Config {
  std::int64_t n = 0;  // 0 = kernel's test size
  int threads = 160;
  bool k80 = false;
  /// --policy: selection policy for the in-process commands (null =
  /// selector default, ModelCompare).
  std::shared_ptr<runtime::policy::SelectionPolicy> policy;

  [[nodiscard]] std::int64_t sizeFor(const polybench::Benchmark* b) const {
    if (n > 0) return n;
    return b != nullptr ? b->size(polybench::Mode::Test) : 1100;
  }
};

symbolic::Bindings bindingsFor(const KernelRef& ref, const Config& config) {
  const std::int64_t n = config.sizeFor(ref.benchmark);
  symbolic::Bindings bindings;
  for (const std::string& param : ref.region->params) bindings[param] = n;
  return bindings;
}

int cmdList() {
  for (const ir::TargetRegion& kernel : fileKernels())
    std::printf("(file)   %s\n", kernel.name.c_str());
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    std::printf("%-8s (test n=%lld, benchmark n=%lld)\n",
                benchmark.name().c_str(),
                static_cast<long long>(benchmark.size(polybench::Mode::Test)),
                static_cast<long long>(
                    benchmark.size(polybench::Mode::Benchmark)));
    for (const ir::TargetRegion& kernel : benchmark.kernels())
      std::printf("    %s\n", kernel.name.c_str());
  }
  return 0;
}

int cmdInspect(const KernelRef& ref, const Config& config) {
  const ir::TargetRegion& kernel = *ref.region;
  std::printf("%s\n", kernel.toString().c_str());
  const ipda::Analysis analysis = ipda::Analysis::analyze(kernel);
  std::printf("IPDA:\n%s\n", analysis.toString().c_str());

  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  const pad::RegionAttributes attr = compiler::analyzeRegion(kernel, hosts);
  std::printf("Instruction loadout (128-trip / 50%%-branch abstraction):\n"
              "  comp %.1f  special %.1f  loads %.1f  stores %.1f  per "
              "parallel iteration\n",
              attr.compInstsPerIter, attr.specialInstsPerIter,
              attr.loadInstsPerIter, attr.storeInstsPerIter);
  std::vector<std::string> models;
  for (const auto& [model, cycles] : attr.machineCyclesPerIter)
    models.push_back(model);
  std::sort(models.begin(), models.end());  // hash map: sort for stable output
  for (const auto& model : models)
    std::printf("  Machine_cycles_per_iter[%s] = %.1f\n", model.c_str(),
                attr.machineCyclesPerIter.at(model));

  const symbolic::Bindings bindings = bindingsFor(ref, config);
  const auto counts = analysis.classifySites(bindings);
  std::printf("\nCoalescing at n=%lld: %lld coalesced, %lld uniform, "
              "%lld strided, %lld irregular\n",
              static_cast<long long>(bindings.at("n")),
              static_cast<long long>(counts.coalesced),
              static_cast<long long>(counts.uniform),
              static_cast<long long>(counts.strided),
              static_cast<long long>(counts.irregular));
  return 0;
}

runtime::SelectorConfig selectorConfig(const Config& config) {
  runtime::SelectorConfig sc;
  if (config.k80) {
    sc.cpuParams = cpumodel::CpuModelParams::power8();
    sc.gpuParams = gpumodel::GpuDeviceParams::teslaK80();
    sc.mcaModelName = "POWER8";
  }
  sc.cpuThreads = config.threads;
  sc.policy = config.policy;
  return sc;
}

int cmdDecide(const KernelRef& ref, const Config& config) {
  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  const runtime::OffloadSelector selector(selectorConfig(config));
  const runtime::CompiledRegionPlan plan =
      selector.compile(compiler::analyzeRegion(*ref.region, hosts));
  const symbolic::Bindings bindings = bindingsFor(ref, config);
  const runtime::Decision decision = selector.decide(plan, bindings);
  std::printf("%s\n%s\n", decision.cpu.toString().c_str(),
              decision.gpu.toString().c_str());
  std::printf("predicted offloading speedup: %s\n",
              support::formatSpeedup(decision.predictedSpeedup()).c_str());
  std::printf("decision: run on %s (decided in %s)\n",
              runtime::toString(decision.device).c_str(),
              support::formatSeconds(decision.overheadSeconds).c_str());
  return 0;
}

int cmdMeasure(const KernelRef& ref, const Config& config) {
  const symbolic::Bindings bindings = bindingsFor(ref, config);
  ir::ArrayStore store = ref.benchmark != nullptr
                             ? ref.benchmark->allocate(bindings)
                             : ir::allocateArrays(*ref.region, bindings);
  if (ref.benchmark != nullptr) {
    polybench::initializeInputs(*ref.benchmark, bindings, store);
  } else {
    // Deterministic non-zero inputs for file kernels.
    std::size_t salt = 1;
    for (auto& [name, data] : store) {
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<double>((i * salt + 7) % 512) / 512.0;
      ++salt;
    }
  }
  const cpusim::CpuSimulator cpuSim(config.k80 ? cpusim::CpuSimParams::power8()
                                               : cpusim::CpuSimParams::power9(),
                                    config.threads);
  const gpusim::GpuSimulator gpuSim(config.k80
                                        ? gpusim::GpuSimParams::teslaK80()
                                        : gpusim::GpuSimParams::teslaV100());
  const auto cpu = cpuSim.simulate(*ref.region, bindings, store);
  const auto gpu = gpuSim.simulate(*ref.region, bindings, store);
  std::printf("%s\n%s\n", cpu.toString().c_str(), gpu.toString().c_str());
  std::printf("true offloading speedup: %s\n",
              support::formatSpeedup(cpu.seconds / gpu.totalSeconds).c_str());
  return 0;
}

/// Which observe-family subcommand is running (they share the setup: run
/// one benchmark through a traced TargetRuntime, then render).
enum class ObserveMode { Trace, Stats, Explain, Drift };

const char* toString(ObserveMode mode) {
  switch (mode) {
    case ObserveMode::Trace:
      return "trace";
    case ObserveMode::Stats:
      return "stats";
    case ObserveMode::Explain:
      return "explain";
    case ObserveMode::Drift:
      return "drift";
  }
  return "?";
}

/// Runs one Polybench benchmark (every kernel, `--repeat` times) through a
/// TargetRuntime with an obs::TraceSession attached; shared by `trace`,
/// `stats`, `explain`, and `drift`. `name` may be a benchmark ("GEMM") or
/// one of its kernels ("gemm_k1" — the owning benchmark is run; `explain`
/// then reports just that kernel).
int cmdObserve(const std::string& name, const Config& config,
               const support::CommandLine& cl, ObserveMode mode) {
  const polybench::Benchmark* benchmark = nullptr;
  bool nameIsKernel = false;
  for (const polybench::Benchmark& candidate : polybench::suite()) {
    if (candidate.name() == name) benchmark = &candidate;
    for (const ir::TargetRegion& kernel : candidate.kernels())
      if (kernel.name == name) {
        benchmark = &candidate;
        nameIsKernel = true;
      }
  }
  if (benchmark == nullptr) {
    std::fprintf(stderr,
                 "oselctl %s: unknown benchmark or kernel %s (try `oselctl "
                 "list`)\n",
                 toString(mode), name.c_str());
    return 2;
  }

  const double faultRate = cl.doubleOption("gpu-fault-rate", 0.0);
  if (faultRate > 0.0) {
    support::faultInjector().arm(
        support::faultpoints::kGpuLaunch,
        {.kind = support::FaultKind::TransientLaunch,
         .probability = faultRate,
         .seed = static_cast<std::uint64_t>(cl.intOption("fault-seed", 2019))});
  }

  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  std::vector<ir::TargetRegion> regions(benchmark->kernels().begin(),
                                        benchmark->kernels().end());
  pad::AttributeDatabase db = compiler::compileAll(regions, hosts);

  obs::TraceSession session;
  session.observeFaultInjector();
  runtime::RuntimeOptions options;
  options.selector = selectorConfig(config);
  options.cpuSim = config.k80 ? cpusim::CpuSimParams::power8()
                              : cpusim::CpuSimParams::power9();
  options.gpuSim = config.k80 ? gpusim::GpuSimParams::teslaK80()
                              : gpusim::GpuSimParams::teslaV100();
  options.trace = &session;
  runtime::TargetRuntime rt(std::move(db), options);
  for (const ir::TargetRegion& kernel : benchmark->kernels())
    rt.registerRegion(kernel);

  const std::int64_t n = config.sizeFor(benchmark);
  const auto repeat = cl.intOption("repeat", 3);
  const symbolic::Bindings bindings = benchmark->bindings(n);
  ir::ArrayStore store = benchmark->allocate(bindings);
  polybench::initializeInputs(*benchmark, bindings, store);
  // Drift needs both devices measured so mispredictions are observable —
  // that is the Oracle policy's contract.
  const runtime::Policy policy = mode == ObserveMode::Drift
                                     ? runtime::Policy::Oracle
                                     : runtime::Policy::ModelGuided;
  for (std::int64_t r = 0; r < repeat; ++r) {
    for (const ir::TargetRegion& kernel : benchmark->kernels())
      (void)rt.launch(kernel.name, bindings, store, policy);
  }

  switch (mode) {
    case ObserveMode::Trace: {
      const std::string json = obs::renderChromeTrace(session);
      if (const auto out = cl.stringOption("out"); out && !out->empty()) {
        std::FILE* file = std::fopen(out->c_str(), "w");
        if (file == nullptr) {
          std::fprintf(stderr, "oselctl trace: cannot open %s for writing\n",
                       out->c_str());
          return 1;
        }
        std::fputs(json.c_str(), file);
        std::fclose(file);
        std::fprintf(stderr, "oselctl trace: wrote %llu events to %s\n",
                     static_cast<unsigned long long>(session.recorded()),
                     out->c_str());
      } else {
        std::fputs(json.c_str(), stdout);
      }
      return 0;
    }
    case ObserveMode::Stats:
      std::fputs(cl.hasFlag("prom")
                     ? obs::renderPrometheus(session).c_str()
                     : obs::renderStatsSummary(session).c_str(),
                 stdout);
      return 0;
    case ObserveMode::Drift:
      std::fputs(obs::renderDriftReport(session).c_str(), stdout);
      return 0;
    case ObserveMode::Explain: {
      if (cl.hasFlag("json")) {
        std::vector<obs::DecisionExplain> records =
            session.explainRing().snapshot();
        if (nameIsKernel) {
          std::erase_if(records, [&](const obs::DecisionExplain& r) {
            return r.regionView() != name;
          });
        }
        std::fputs(obs::renderExplainJson(records).c_str(), stdout);
        return 0;
      }
      // Text: the latest record per requested kernel.
      bool printedAny = false;
      for (const ir::TargetRegion& kernel : benchmark->kernels()) {
        if (nameIsKernel && kernel.name != name) continue;
        obs::DecisionExplain record;
        const auto ofKernel = [&](const obs::DecisionExplain& r) {
          return r.regionView() == kernel.name;
        };
        if (!session.explainRing().findNewest(ofKernel, record)) continue;
        if (printedAny) std::fputs("\n", stdout);
        std::fputs(obs::renderExplainText(record).c_str(), stdout);
        printedAny = true;
      }
      if (!printedAny) {
        std::fprintf(stderr,
                     "oselctl explain: no decision records for %s\n",
                     name.c_str());
        return 1;
      }
      return 0;
    }
  }
  return 2;
}

// --- Socket mode ----------------------------------------------------------
// `ping`, and `decide`/`stats` with --socket PATH, talk to a live oseld
// instead of evaluating in-process. Exit codes are unified across them:
// 0 ok, 2 usage, 3 could not connect (distinct so init scripts and probes
// can tell "daemon down" from "bad invocation").

int cmdPing(const std::string& socketPath) {
  service::Client client = service::Client::connect(socketPath);
  client.ping();
  std::printf("oseld at %s: ok (protocol v%u)\n", socketPath.c_str(),
              static_cast<unsigned>(client.version()));
  return 0;
}

int cmdSocketDecide(const KernelRef& ref, const Config& config,
                    const std::string& socketPath) {
  const symbolic::Bindings bindings = bindingsFor(ref, config);
  service::Client client = service::Client::connect(socketPath);
  const runtime::Decision decision =
      client.decide(ref.region->name, bindings);
  // Only the wire-stable Decision subset crosses the socket; print that.
  std::printf("cpu predicted:  %s\n",
              support::formatSeconds(decision.cpu.seconds).c_str());
  std::printf("gpu predicted:  %s\n",
              support::formatSeconds(decision.gpu.totalSeconds).c_str());
  std::printf("predicted offloading speedup: %s\n",
              support::formatSpeedup(decision.predictedSpeedup()).c_str());
  std::printf("decision: run on %s (server-side, decided in %s)\n",
              runtime::toString(decision.device).c_str(),
              support::formatSeconds(decision.overheadSeconds).c_str());
  if (!decision.valid) {
    std::printf("degraded: %s\n", decision.diagnostic.c_str());
  }
  return 0;
}

int cmdSocketStats(const std::string& socketPath, bool prometheus) {
  service::Client client = service::Client::connect(socketPath);
  const std::string text = client.stats(
      prometheus ? service::StatsFormat::Prometheus
                 : service::StatsFormat::Summary);
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmdSocketSlow(const std::string& socketPath, std::uint32_t maxRecords) {
  service::Client client = service::Client::connect(socketPath);
  const std::string jsonl = client.slowLog(maxRecords);
  std::fputs(jsonl.c_str(), stdout);
  return 0;
}

// --- oselctl top ----------------------------------------------------------
// Polls the daemon's Prometheus exposition over the stats feature and
// renders interval deltas: decisions/sec, per-stage latency quantiles from
// bucket-count deltas (obs::quantileFromBuckets), and the
// shed/drift-alarm/refit counters. No new wire surface — anything shown
// here is scrapeable from `GET /metrics` too. No decision-cache hit ratio:
// oseld decides every wire row afresh.

/// One parsed Prometheus histogram family (cumulative bucket counts in
/// exposition order, +Inf last; `upperBounds` excludes +Inf).
struct PromHistogram {
  std::vector<double> upperBounds;
  std::vector<double> cumulative;
};

struct PromSnapshot {
  /// name (labels included verbatim, e.g. `osel_foo_total{ring="slow"}`)
  /// → last value wins. Histogram `_bucket` series land in `histograms`.
  std::map<std::string, double> values;
  std::map<std::string, PromHistogram> histograms;

  [[nodiscard]] double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

PromSnapshot parsePrometheus(const std::string& text) {
  PromSnapshot snap;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.front() == '#') continue;
    // `name{labels} value` or `name value`; labels never contain spaces in
    // our exposition (region names are C identifiers).
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    std::string name(line.substr(0, space));
    const double value = std::strtod(line.data() + space + 1, nullptr);
    const std::size_t brace = name.find('{');
    const std::string bare =
        brace == std::string::npos ? name : name.substr(0, brace);
    if (bare.size() > 7 && bare.ends_with("_bucket") &&
        brace != std::string::npos) {
      const std::string family = bare.substr(0, bare.size() - 7);
      const std::size_t le = name.find("le=\"", brace);
      if (le == std::string::npos) continue;
      const std::size_t leEnd = name.find('"', le + 4);
      if (leEnd == std::string::npos) continue;
      const std::string bound = name.substr(le + 4, leEnd - (le + 4));
      PromHistogram& hist = snap.histograms[family];
      if (bound == "+Inf") {
        hist.cumulative.push_back(value);
      } else {
        hist.upperBounds.push_back(std::strtod(bound.c_str(), nullptr));
        hist.cumulative.push_back(value);
      }
      continue;
    }
    snap.values[name] = value;
  }
  return snap;
}

/// Per-bucket count deltas between two snapshots of one histogram family
/// (all-zero when shapes mismatch, e.g. the family appeared mid-run).
/// Output shape matches obs::quantileFromBuckets: upperBounds.size() + 1
/// entries, overflow last.
std::vector<std::uint64_t> bucketDeltas(const PromHistogram& cur,
                                        const PromHistogram* prev) {
  std::vector<std::uint64_t> counts(cur.upperBounds.size() + 1, 0);
  if (cur.cumulative.size() != counts.size()) return counts;
  double before = 0.0;
  for (std::size_t i = 0; i < cur.cumulative.size(); ++i) {
    double cum = cur.cumulative[i];
    if (prev != nullptr && prev->cumulative.size() == cur.cumulative.size()) {
      cum -= prev->cumulative[i];
    }
    const double delta = cum - before;
    before = cum;
    counts[i] = delta > 0 ? static_cast<std::uint64_t>(delta + 0.5) : 0;
  }
  return counts;
}

constexpr struct {
  const char* label;
  const char* family;
} kTopStages[] = {
    {"decode", "osel_service_decode_s"},
    {"decide", "osel_service_decide_s"},
    {"encode", "osel_service_encode_s"},
    {"send", "osel_service_send_s"},
    {"request", "osel_service_request_s"},
    {"record", "osel_service_record_s"},
};

void renderTop(const std::string& socketPath, const PromSnapshot& snap,
               const PromSnapshot* prev, double elapsedSeconds,
               long long sample) {
  const auto delta = [&](const char* name) {
    const double cur = snap.value(name);
    return prev != nullptr ? cur - prev->value(name) : cur;
  };
  std::printf("oseld top — %s   sample %lld   window %.1fs%s\n",
              socketPath.c_str(), sample,
              elapsedSeconds > 0 ? elapsedSeconds : 0.0,
              prev == nullptr ? " (since daemon start)" : "");
  const double decisions = delta("osel_service_decisions_total");
  if (elapsedSeconds > 0) {
    std::printf("decisions/sec %.1f   total %.0f   errors %.0f   frames "
                "%.0f\n",
                decisions / elapsedSeconds,
                snap.value("osel_service_decisions_total"),
                snap.value("osel_service_errors_total"),
                snap.value("osel_service_frames_total"));
  } else {
    std::printf("decisions %.0f   errors %.0f   frames %.0f\n",
                snap.value("osel_service_decisions_total"),
                snap.value("osel_service_errors_total"),
                snap.value("osel_service_frames_total"));
  }
  std::printf("%-8s %12s %12s %12s %10s\n", "stage", "p50", "p99", "p999",
              "count");
  for (const auto& stage : kTopStages) {
    const auto it = snap.histograms.find(stage.family);
    if (it == snap.histograms.end()) continue;
    const PromHistogram* prevHist = nullptr;
    if (prev != nullptr) {
      const auto pit = prev->histograms.find(stage.family);
      if (pit != prev->histograms.end()) prevHist = &pit->second;
    }
    const std::vector<std::uint64_t> counts =
        bucketDeltas(it->second, prevHist);
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    const auto quantile = [&](double q) -> std::string {
      if (total == 0) return "-";
      return support::formatSeconds(
          obs::quantileFromBuckets(it->second.upperBounds, counts, q));
    };
    std::printf("%-8s %12s %12s %12s %10llu\n", stage.label,
                quantile(0.5).c_str(), quantile(0.99).c_str(),
                quantile(0.999).c_str(),
                static_cast<unsigned long long>(total));
  }
  std::printf("sheds %.0f (+%.0f)   drift alarms %.0f (+%.0f)   refits "
              "%.0f (+%.0f)\n",
              snap.value("osel_service_sheds_total"),
              delta("osel_service_sheds_total"),
              snap.value("osel_drift_alarms_total"),
              delta("osel_drift_alarms_total"),
              snap.value("osel_policy_refit_total"),
              delta("osel_policy_refit_total"));
  std::printf("slow captured %.0f (+%.0f)   slow dropped %.0f\n",
              snap.value("osel_slow_recorded_total"),
              delta("osel_slow_recorded_total"),
              snap.value(
                  "osel_trace_dropped_total{ring=\"slow\"}"));
}

int cmdSocketTop(const std::string& socketPath, long long intervalMs,
                 long long iterations) {
  service::Client client = service::Client::connect(socketPath);
  const bool tty = isatty(fileno(stdout)) != 0;
  PromSnapshot prev;
  bool havePrev = false;
  auto prevAt = std::chrono::steady_clock::now();
  for (long long sample = 0; iterations <= 0 || sample < iterations;
       ++sample) {
    if (sample > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
    }
    const auto now = std::chrono::steady_clock::now();
    PromSnapshot snap =
        parsePrometheus(client.stats(service::StatsFormat::Prometheus));
    const double elapsed =
        havePrev ? std::chrono::duration<double>(now - prevAt).count() : 0.0;
    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);
    renderTop(socketPath, snap, havePrev ? &prev : nullptr, elapsed, sample);
    std::fflush(stdout);
    prev = std::move(snap);
    prevAt = now;
    havePrev = true;
  }
  return 0;
}

/// Shared error envelope for the socket commands' exit-code contract.
template <typename Body>
int runSocketCommand(const char* command, Body&& body) {
  try {
    return body();
  } catch (const service::ConnectError& error) {
    std::fprintf(stderr, "oselctl %s: %s\n", command, error.what());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "oselctl %s: %s\n", command, error.what());
    return 1;
  }
}

int cmdPad(const std::vector<std::string>& names) {
  const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                               mca::MachineModel::power8()};
  pad::AttributeDatabase db;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      const bool wanted =
          names.size() <= 1 ||
          std::find(names.begin() + 1, names.end(), kernel.name) != names.end();
      if (wanted) db.insert(compiler::analyzeRegion(kernel, hosts));
    }
  }
  std::fputs(db.serialize().c_str(), stdout);
  return 0;
}

constexpr const char* kUsage =
    "usage: oselctl <command> [kernel|benchmark] [options]\n"
    "\n"
    "commands:\n"
    "  list                      all benchmarks and kernels\n"
    "  inspect <kernel>          region IR, IPDA dump, loadout, MCA cycles\n"
    "  decide  <kernel>          evaluate both models and choose a device\n"
    "  measure <kernel>          ground-truth device simulations\n"
    "  pad     [<kernel>...]     print serialized PAD entries\n"
    "  emit    <kernel>          print a kernel as .osel source\n"
    "  trace   <benchmark>       run traced; print Chrome trace_event JSON\n"
    "  stats   <benchmark>       run traced; print metrics + prediction\n"
    "                            accuracy (--prom: Prometheus exposition)\n"
    "  explain <kernel>          run traced; print the latest decision's\n"
    "                            model-term breakdown (--json: all records)\n"
    "  drift   <benchmark>       run under Oracle; print the per-region\n"
    "                            drift report (EWMA/CUSUM, mispredictions)\n"
    "  ping    --socket PATH     probe a live oseld daemon\n"
    "  slow    --socket PATH     the daemon's slow-request capture (JSONL)\n"
    "  top     --socket PATH     live service dashboard (polls stats)\n"
    "\n"
    "socket mode (against a live oseld; see docs/SERVICE.md):\n"
    "  decide <kernel> --socket PATH   ask the daemon instead of deciding\n"
    "                                  in-process\n"
    "  stats --socket PATH [--prom]    the daemon's metrics summary or\n"
    "                                  Prometheus exposition\n"
    "  slow --socket PATH [--max N]    newest N slow-request wide events as\n"
    "                                  JSONL (default: everything buffered)\n"
    "  top --socket PATH [--interval-ms M] [--iterations K]\n"
    "                                  decisions/sec, per-stage p50/p99/p999,\n"
    "                                  shed/drift/refit counters; K <= 0\n"
    "                                  polls forever\n"
    "  exit codes: 0 ok, 2 usage, 3 could not connect\n"
    "\n"
    "common options: --n N, --threads T, --platform v100|k80,\n"
    "  --file path.osel (load kernels from a kernel-language file),\n"
    "  --policy model-compare|calibrated\n"
    "  (in-process selection policy; default model-compare)\n"
    "trace/stats/explain/drift: --repeat R, --gpu-fault-rate P,\n"
    "  --fault-seed S, --out FILE (trace only)\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto& positional = cl.positional();
  if (cl.hasFlag("help") || cl.hasFlag("h") ||
      (!positional.empty() && positional[0] == "help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (positional.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  Config config;
  if (const auto file = cl.stringOption("file"); file && !file->empty()) {
    // A missing/unreadable/malformed kernel file must be a clean non-zero
    // exit with the reason, not an uncaught-exception terminate.
    try {
      fileKernels() = frontend::parseKernelFile(*file);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "oselctl: cannot load --file %s: %s\n",
                   file->c_str(), error.what());
      return 2;
    }
  }
  config.n = cl.intOption("n", 0);
  config.threads = static_cast<int>(cl.intOption("threads", 160));
  config.k80 = cl.stringOption("platform").value_or("v100") == "k80";
  if (const auto policyName = cl.stringOption("policy")) {
    const auto kind = runtime::policy::parsePolicyKind(*policyName);
    if (!kind.has_value()) {
      std::fprintf(stderr, "oselctl: unknown --policy '%s' (expected %s)\n",
                   policyName->c_str(),
                   runtime::policy::policyKindNames().c_str());
      return 2;
    }
    runtime::policy::PolicyOptions policyOptions;
    policyOptions.kind = *kind;
    config.policy = runtime::policy::makePolicy(policyOptions);
  }

  const std::string& command = positional[0];
  if (command == "list") return cmdList();
  if (command == "pad") return cmdPad(positional);

  const auto socketPath = cl.stringOption("socket");
  if (command == "ping") {
    if (!socketPath || socketPath->empty()) {
      std::fprintf(stderr, "oselctl ping: --socket PATH is required\n");
      return 2;
    }
    return runSocketCommand("ping", [&] { return cmdPing(*socketPath); });
  }
  if (command == "stats" && socketPath && !socketPath->empty()) {
    return runSocketCommand("stats", [&] {
      return cmdSocketStats(*socketPath, cl.hasFlag("prom"));
    });
  }
  if (command == "slow") {
    if (!socketPath || socketPath->empty()) {
      std::fprintf(stderr, "oselctl slow: --socket PATH is required\n");
      return 2;
    }
    return runSocketCommand("slow", [&] {
      return cmdSocketSlow(*socketPath,
                           static_cast<std::uint32_t>(cl.intOption("max", 0)));
    });
  }
  if (command == "top") {
    if (!socketPath || socketPath->empty()) {
      std::fprintf(stderr, "oselctl top: --socket PATH is required\n");
      return 2;
    }
    return runSocketCommand("top", [&] {
      return cmdSocketTop(*socketPath, cl.intOption("interval-ms", 1000),
                          cl.intOption("iterations", 0));
    });
  }
  if (command == "decide" && socketPath && !socketPath->empty()) {
    if (positional.size() < 2) {
      std::fprintf(stderr,
                   "oselctl decide: missing kernel name (try `oselctl list`)\n");
      return 2;
    }
    const KernelRef ref = findKernel(positional[1]);
    if (ref.region == nullptr) {
      std::fprintf(stderr, "oselctl: unknown kernel %s (try `oselctl list`)\n",
                   positional[1].c_str());
      return 2;
    }
    return runSocketCommand(
        "decide", [&] { return cmdSocketDecide(ref, config, *socketPath); });
  }

  const bool isObserve = command == "trace" || command == "stats" ||
                         command == "explain" || command == "drift";
  const bool isKernelCommand = command == "emit" || command == "inspect" ||
                               command == "decide" || command == "measure";
  if (!isObserve && !isKernelCommand) {
    std::fprintf(stderr, "oselctl: unknown command %s\n\n", command.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (positional.size() < 2) {
    std::fprintf(stderr, "oselctl %s: missing kernel name (try `oselctl list`)\n",
                 command.c_str());
    return 2;
  }
  if (isObserve) {
    const ObserveMode mode = command == "trace"     ? ObserveMode::Trace
                             : command == "stats"   ? ObserveMode::Stats
                             : command == "explain" ? ObserveMode::Explain
                                                    : ObserveMode::Drift;
    return cmdObserve(positional[1], config, cl, mode);
  }
  const KernelRef ref = findKernel(positional[1]);
  if (ref.region == nullptr) {
    std::fprintf(stderr, "oselctl: unknown kernel %s (try `oselctl list`)\n",
                 positional[1].c_str());
    return 2;
  }
  if (command == "emit") {
    std::fputs(frontend::printKernel(*ref.region).c_str(), stdout);
    return 0;
  }
  if (command == "inspect") return cmdInspect(ref, config);
  if (command == "decide") return cmdDecide(ref, config);
  return cmdMeasure(ref, config);
}
