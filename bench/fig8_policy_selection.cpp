// Reproduces Figure 8: whole-benchmark speedup over host-only execution
// under the compiler's default policy (always offload every target region)
// versus the paper's model-guided selection, on the POWER9 + V100 platform
// with a 160-thread host. An oracle column (always pick the truly faster
// device) bounds what any selector could achieve.
//
// Paper's headline: always-offload geomean 10.2x (test) / 2.9x (benchmark);
// model-guided 14.2x / 3.7x — selection captures the GPU's wins while
// dodging its losses. Known model miss reproduced: close-call kernels (the
// convolutions around the 1.0x boundary) can be decided wrongly.
//
// The second table per mode is the selection-policy head-to-head
// (docs/POLICIES.md): both SelectionPolicy implementations replayed over
// the same measurement streams (--rounds passes, default 3, so the
// calibrated policy has history to act on), each fed the launch feedback
// it would see live, scored by achieved speedup and by choices that
// disagree with the oracle. Without drift there are no CUSUM alarms, so
// Calibrated matches model-compare here by design — the drift_scenario
// bench is where it separates; this table shows that calibration costs
// nothing in the steady state.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/platform.h"
#include "bench/common/thread_pool.h"
#include "runtime/policy/policy.h"
#include "support/cli.h"
#include "support/format.h"
#include "support/statistics.h"
#include "support/table.h"

namespace {

using namespace osel;

constexpr std::array<runtime::policy::PolicyKind, 2> kSelectionKinds{
    runtime::policy::PolicyKind::ModelCompare,
    runtime::policy::PolicyKind::Calibrated,
};

struct BenchmarkTimes {
  std::string name;
  double cpuOnly = 0.0;
  double gpuOnly = 0.0;
  double modelGuided = 0.0;
  double oracle = 0.0;
  int offloadedByModel = 0;
  int kernels = 0;
  /// Head-to-head: per-policy summed actual seconds over --rounds passes,
  /// and how many choices disagreed with the oracle device.
  std::array<double, kSelectionKinds.size()> policySeconds{};
  std::array<int, kSelectionKinds.size()> policyMisses{};
  /// The same stream's host-only and oracle baselines (rounds included).
  double cpuOnlyStream = 0.0;
  double oracleStream = 0.0;
};

BenchmarkTimes evaluate(
    const polybench::Benchmark& benchmark, std::int64_t n,
    const bench::Platform& platform, int rounds,
    const std::array<std::shared_ptr<runtime::policy::SelectionPolicy>,
                     kSelectionKinds.size()>& policies) {
  BenchmarkTimes t;
  t.name = benchmark.name();
  const std::vector<bench::KernelMeasurement> measurements =
      bench::measureBenchmark(benchmark, n, platform);
  for (const bench::KernelMeasurement& m : measurements) {
    t.cpuOnly += m.actualCpuSeconds;
    t.gpuOnly += m.actualGpuSeconds;
    const bool offload = m.predictedGpuSeconds < m.predictedCpuSeconds;
    t.modelGuided += offload ? m.actualGpuSeconds : m.actualCpuSeconds;
    t.oracle += std::min(m.actualCpuSeconds, m.actualGpuSeconds);
    if (offload) ++t.offloadedByModel;
    ++t.kernels;
  }
  // Head-to-head replay: every policy sees the identical stream (rounds
  // suite-order passes) and the feedback a live runtime would feed back.
  for (int round = 0; round < rounds; ++round) {
    for (const bench::KernelMeasurement& m : measurements) {
      t.cpuOnlyStream += m.actualCpuSeconds;
      t.oracleStream += std::min(m.actualCpuSeconds, m.actualGpuSeconds);
      const runtime::Device oracleDevice =
          m.actualGpuSeconds < m.actualCpuSeconds ? runtime::Device::Gpu
                                                  : runtime::Device::Cpu;
      for (std::size_t p = 0; p < kSelectionKinds.size(); ++p) {
        const runtime::policy::PolicyChoice choice = policies[p]->choose(
            {m.kernel, m.predictedCpuSeconds, m.predictedGpuSeconds});
        const bool gpu = choice.device == runtime::Device::Gpu;
        t.policySeconds[p] += gpu ? m.actualGpuSeconds : m.actualCpuSeconds;
        if (choice.device != oracleDevice) ++t.policyMisses[p];
        (void)policies[p]->observe(
            {m.kernel, choice.device,
             gpu ? m.predictedGpuSeconds : m.predictedCpuSeconds,
             gpu ? m.actualGpuSeconds : m.actualCpuSeconds,
             /*alarmRaised=*/false});
      }
    }
  }
  return t;
}

void runMode(polybench::Mode mode, std::int64_t scale, int threads, bool csv,
             int rounds, bench::ThreadPool& pool) {
  const bench::Platform platform = bench::Platform::power9V100(threads);
  std::printf(
      "Figure 8 — suite speedup over host-only execution (%s mode, %d-thread "
      "host, %s)\n\n",
      polybench::toString(mode).c_str(), threads, platform.name.c_str());

  // One policy instance per kind per mode, shared across benchmarks like a
  // live runtime's selector would be. Kernel names are unique across the
  // suite, so concurrent evaluate() calls touch disjoint per-region state
  // (the policies are internally synchronized regardless).
  std::array<std::shared_ptr<runtime::policy::SelectionPolicy>,
             kSelectionKinds.size()>
      policies;
  for (std::size_t p = 0; p < kSelectionKinds.size(); ++p) {
    runtime::policy::PolicyOptions options;
    options.kind = kSelectionKinds[p];
    policies[p] = runtime::policy::makePolicy(options);
  }

  // Measure benchmarks concurrently (each evaluate() is self-contained),
  // collecting into suite-order slots so the table is scheduling-invariant.
  const std::vector<polybench::Benchmark>& suite = polybench::suite();
  std::vector<BenchmarkTimes> times(suite.size());
  pool.parallelFor(suite.size(), [&](std::size_t i) {
    const std::int64_t n = bench::scaledSize(suite[i], mode, scale);
    times[i] = evaluate(suite[i], n, platform, rounds, policies);
  });

  support::TextTable table({"Benchmark", "Always-GPU", "Model-guided", "Oracle",
                            "Offloaded kernels"});
  std::vector<double> gpuSpeedups;
  std::vector<double> guidedSpeedups;
  std::vector<double> oracleSpeedups;
  for (const BenchmarkTimes& t : times) {
    const double gpuSpeedup = t.cpuOnly / t.gpuOnly;
    const double guidedSpeedup = t.cpuOnly / t.modelGuided;
    const double oracleSpeedup = t.cpuOnly / t.oracle;
    table.addRow({t.name, support::formatSpeedup(gpuSpeedup),
                  support::formatSpeedup(guidedSpeedup),
                  support::formatSpeedup(oracleSpeedup),
                  std::to_string(t.offloadedByModel) + "/" +
                      std::to_string(t.kernels)});
    gpuSpeedups.push_back(gpuSpeedup);
    guidedSpeedups.push_back(guidedSpeedup);
    oracleSpeedups.push_back(oracleSpeedup);
  }
  table.addSeparator();
  table.addRow({"geomean",
                support::formatSpeedup(support::geometricMean(gpuSpeedups)),
                support::formatSpeedup(support::geometricMean(guidedSpeedups)),
                support::formatSpeedup(support::geometricMean(oracleSpeedups)),
                "-"});
  if (csv) {
    std::fputs(table.renderCsv().c_str(), stdout);
  } else {
    std::fputs(table.render(2).c_str(), stdout);
  }
  std::printf("\n");

  // Selection-policy head-to-head over the same streams.
  std::printf(
      "Selection-policy head-to-head (%d round(s) per benchmark; speedup "
      "over host-only, oracle-disagreeing choices in parentheses)\n\n",
      rounds);
  std::vector<std::string> header{"Benchmark"};
  for (const runtime::policy::PolicyKind kind : kSelectionKinds) {
    header.push_back(std::string(runtime::policy::toString(kind)));
  }
  header.push_back("Oracle");
  support::TextTable headToHead(header);
  std::array<std::vector<double>, kSelectionKinds.size()> policySpeedups;
  std::array<int, kSelectionKinds.size()> totalMisses{};
  std::vector<double> oracleStreamSpeedups;
  for (const BenchmarkTimes& t : times) {
    std::vector<std::string> row{t.name};
    for (std::size_t p = 0; p < kSelectionKinds.size(); ++p) {
      const double speedup = t.cpuOnlyStream / t.policySeconds[p];
      policySpeedups[p].push_back(speedup);
      totalMisses[p] += t.policyMisses[p];
      row.push_back(support::formatSpeedup(speedup) + " (" +
                    std::to_string(t.policyMisses[p]) + ")");
    }
    const double oracleSpeedup = t.cpuOnlyStream / t.oracleStream;
    oracleStreamSpeedups.push_back(oracleSpeedup);
    row.push_back(support::formatSpeedup(oracleSpeedup));
    headToHead.addRow(row);
  }
  headToHead.addSeparator();
  std::vector<std::string> geomeanRow{"geomean"};
  for (std::size_t p = 0; p < kSelectionKinds.size(); ++p) {
    geomeanRow.push_back(
        support::formatSpeedup(support::geometricMean(policySpeedups[p])) +
        " (" + std::to_string(totalMisses[p]) + ")");
  }
  geomeanRow.push_back(
      support::formatSpeedup(support::geometricMean(oracleStreamSpeedups)));
  headToHead.addRow(geomeanRow);
  if (csv) {
    std::fputs(headToHead.renderCsv().c_str(), stdout);
  } else {
    std::fputs(headToHead.render(2).c_str(), stdout);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto scale = cl.intOption("scale", 4);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));
  const std::string mode = cl.stringOption("mode").value_or("both");
  const bool csv = cl.hasFlag("csv");
  // --rounds R: head-to-head passes over each benchmark's stream (>= 1).
  const int rounds = static_cast<int>(cl.intOption("rounds", 3));
  if (rounds < 1) {
    std::fprintf(stderr, "fig8_policy_selection: --rounds must be >= 1\n");
    return 2;
  }
  // --jobs J: measurement concurrency (0 = hardware threads, 1 = serial).
  bench::ThreadPool pool(static_cast<unsigned>(cl.intOption("jobs", 0)));
  if (mode == "test" || mode == "both")
    runMode(polybench::Mode::Test, scale, threads, csv, rounds, pool);
  if (mode == "benchmark" || mode == "both")
    runMode(polybench::Mode::Benchmark, scale, threads, csv, rounds, pool);
  return 0;
}
