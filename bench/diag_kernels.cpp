// Diagnostic dump: per-kernel ground-truth component breakdowns and model
// predictions side by side, for calibration and debugging. Not one of the
// paper's tables — a maintenance tool.
#include <cstdio>
#include <string>

#include "bench/common/platform.h"
#include "compiler/compiler.h"
#include "runtime/selector.h"
#include "support/cli.h"
#include "support/format.h"

int main(int argc, char** argv) {
  using namespace osel;
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto n = cl.intOption("n", 1100);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));
  const std::string only = cl.stringOption("benchmark").value_or("");

  const bench::Platform platform =
      cl.stringOption("platform").value_or("v100") == "k80"
          ? bench::Platform::power8K80(threads)
          : bench::Platform::power9V100(threads);
  const cpusim::CpuSimulator cpuSim(platform.cpuSim, platform.threads);
  const gpusim::GpuSimulator gpuSim(platform.gpuSim);
  const std::array<mca::MachineModel, 1> models{platform.mcaModel};
  runtime::SelectorConfig config;
  config.cpuParams = platform.cpuModel;
  config.cpuThreads = platform.threads;
  config.gpuParams = platform.gpuModel;
  config.mcaModelName = platform.mcaModel.name;
  const runtime::OffloadSelector selector(config);

  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    if (!only.empty() && benchmark.name() != only) continue;
    const auto bindings = benchmark.bindings(n);
    ir::ArrayStore store = benchmark.allocate(bindings);
    polybench::initializeInputs(benchmark, bindings, store);
    for (const auto& kernel : benchmark.kernels()) {
      std::printf("== %s (n=%lld, threads=%d)\n", kernel.name.c_str(),
                  static_cast<long long>(n), threads);
      const auto cpu = cpuSim.simulate(kernel, bindings, store);
      std::printf("  %s\n", cpu.toString().c_str());
      std::printf("    overhead=%.0f compute=%.0f stall=%.0f bw=%.0f cycles\n",
                  cpu.overheadCycles, cpu.computeCycles, cpu.stallCycles,
                  cpu.bandwidthCycles);
      const auto gpu = gpuSim.simulate(kernel, bindings, store);
      std::printf("  %s\n", gpu.toString().c_str());
      std::printf("    bounds: issue=%.2f latency=%.2f bandwidth=%.2f\n",
                  gpu.issueBoundFraction, gpu.latencyBoundFraction,
                  gpu.bandwidthBoundFraction);
      const runtime::CompiledRegionPlan plan =
          selector.compile(compiler::analyzeRegion(kernel, models));
      const auto decision = selector.decide(plan, bindings);
      std::printf("  model: %s\n  model: %s\n",
                  decision.cpu.toString().c_str(),
                  decision.gpu.toString().c_str());
      std::printf("  actual speedup %.2fx | predicted %.2fx\n\n",
                  cpu.seconds / gpu.totalSeconds, decision.predictedSpeedup());
    }
  }
  return 0;
}
