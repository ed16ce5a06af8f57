// Ablation for the paper's §IV.C claim: runtime-resolved IPDA strides give
// the GPU model better memory-coalescing inputs than the crude assumptions
// existing analytical models fall back to.
//
// Three variants of the Hong-Kim inputs per kernel:
//   * ipda          — the hybrid split (what the framework ships),
//   * all-coalesced — assume every access coalesces (optimistic),
//   * all-uncoal    — assume none do (pessimistic),
// compared against the ground-truth GPU simulator on prediction error and
// on the CPU/GPU decision each variant implies.
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/common/platform.h"
#include "compiler/compiler.h"
#include "runtime/selector.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/format.h"
#include "support/statistics.h"
#include "support/table.h"

namespace {

using namespace osel;

enum class Variant { Ipda, AllCoalesced, AllUncoalesced };

gpumodel::GpuWorkload applyVariant(gpumodel::GpuWorkload workload, Variant v) {
  const double total =
      workload.coalMemInstsPerThread + workload.uncoalMemInstsPerThread;
  switch (v) {
    case Variant::Ipda:
      break;
    case Variant::AllCoalesced:
      workload.coalMemInstsPerThread = total;
      workload.uncoalMemInstsPerThread = 0.0;
      break;
    case Variant::AllUncoalesced:
      workload.coalMemInstsPerThread = 0.0;
      workload.uncoalMemInstsPerThread = total;
      break;
  }
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto n = cl.intOption("n", 2200);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));

  const bench::Platform platform = bench::Platform::power9V100(threads);
  const gpusim::GpuSimulator gpuSim(platform.gpuSim);
  const cpusim::CpuSimulator cpuSim(platform.cpuSim, threads);
  const gpumodel::GpuCostModel gpuModel(platform.gpuModel);
  const std::array<mca::MachineModel, 1> models{platform.mcaModel};
  runtime::SelectorConfig config;
  config.cpuParams = platform.cpuModel;
  config.cpuThreads = threads;
  config.gpuParams = platform.gpuModel;
  config.mcaModelName = platform.mcaModel.name;
  const runtime::OffloadSelector selector(config);

  std::printf("Ablation — GPU-model coalescing inputs: IPDA vs crude "
              "assumptions (n=%lld, %s)\n\n",
              static_cast<long long>(n), platform.name.c_str());

  support::TextTable table({"Kernel", "Actual GPU", "IPDA", "All-coal",
                            "All-uncoal"});
  std::vector<double> actualSpeedups;
  std::map<Variant, std::vector<double>> errors;
  std::map<Variant, std::vector<double>> predictedSpeedups;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    const std::int64_t size = benchmark.name() == "3DCONV" ? 256 : n;
    const auto bindings = benchmark.bindings(size);
    ir::ArrayStore store = benchmark.allocate(bindings);
    polybench::initializeInputs(benchmark, bindings, store);
    for (const auto& kernel : benchmark.kernels()) {
      const double actualGpu =
          gpuSim.simulate(kernel, bindings, store).totalSeconds;
      const double actualCpu = cpuSim.simulate(kernel, bindings, store).seconds;
      actualSpeedups.push_back(actualCpu / actualGpu);
      // The workloads the selector decides on: one row of the plan's
      // column completion.
      const runtime::CompiledRegionPlan plan =
          selector.compile(compiler::analyzeRegion(kernel, models));
      std::array<std::int64_t, runtime::CompiledRegionPlan::kMaxSlots> slots{};
      std::uint64_t boundMask = 0;
      support::require(
          plan.fastPathUsable() &&
              plan.bindSlotsColumn(bindings, slots.data(), 1, 0, boundMask),
          "ablation_ipda: kernel bindings do not complete its plan");
      std::int64_t exprOut = 0;
      std::int64_t scratch = 0;
      cpumodel::CpuWorkload cpu;
      gpumodel::GpuWorkload base;
      plan.completeWorkloadsColumns(slots.data(), &boundMask, 1, &exprOut,
                                    &scratch, &cpu, &base);
      const double cpuPredicted =
          selector.decideFromWorkloads(plan, cpu, base).cpu.seconds;
      std::vector<std::string> row{
          kernel.name, support::formatSeconds(actualGpu)};
      for (const Variant v :
           {Variant::Ipda, Variant::AllCoalesced, Variant::AllUncoalesced}) {
        const double predicted =
            gpuModel.predict(applyVariant(base, v)).totalSeconds;
        row.push_back(support::formatSeconds(predicted));
        const double ratio = predicted / actualGpu;
        errors[v].push_back(ratio > 1 ? ratio : 1.0 / ratio);
        predictedSpeedups[v].push_back(cpuPredicted / predicted);
      }
      table.addRow(std::move(row));
    }
  }
  table.addSeparator();
  table.addRow({"geomean |err|", "-",
                support::formatFixed(
                    support::geometricMean(errors[Variant::Ipda]), 2) + "x",
                support::formatFixed(
                    support::geometricMean(errors[Variant::AllCoalesced]), 2) + "x",
                support::formatFixed(
                    support::geometricMean(errors[Variant::AllUncoalesced]), 2) +
                    "x"});
  if (cl.hasFlag("csv")) {
    std::fputs(table.renderCsv().c_str(), stdout);
  } else {
    std::fputs(table.render(2).c_str(), stdout);
  }
  std::printf("\n  offloading-decision agreement with ground truth:\n");
  for (const auto& [variant, name] :
       std::vector<std::pair<Variant, std::string>>{
           {Variant::Ipda, "ipda"},
           {Variant::AllCoalesced, "all-coalesced"},
           {Variant::AllUncoalesced, "all-uncoalesced"}}) {
    std::printf("    %-15s %s\n", name.c_str(),
                support::formatPercent(
                    support::agreementRate(predictedSpeedups[variant],
                                           actualSpeedups, 1.0))
                    .c_str());
  }
  return 0;
}
