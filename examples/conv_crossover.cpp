// conv_crossover — where does offloading a 2D convolution start to pay?
//
// The motivating scenario of the paper's introduction: the right device for
// the *same* kernel depends on runtime values (here, the image size). This
// example sweeps the 2DCONV kernel across sizes on the simulated
// POWER9+V100 node and prints, per size, the measured CPU/GPU times, the
// model predictions, and whether the selector's launch-time decision
// matches the true winner — locating the CPU->GPU crossover.
//
// Build & run:  ./build/examples/conv_crossover [--threads N]
#include <array>
#include <cstdio>

#include "compiler/compiler.h"
#include "cpusim/cpu_simulator.h"
#include "gpusim/gpu_simulator.h"
#include "polybench/polybench.h"
#include "runtime/selector.h"
#include "support/cli.h"
#include "support/format.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace osel;
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));

  const polybench::Benchmark& conv = polybench::benchmarkByName("2DCONV");
  const ir::TargetRegion& kernel = conv.kernels()[0];

  const std::array<mca::MachineModel, 1> hosts{mca::MachineModel::power9()};
  runtime::SelectorConfig config;
  config.cpuThreads = threads;
  const runtime::OffloadSelector selector(config);
  const runtime::CompiledRegionPlan plan =
      selector.compile(compiler::analyzeRegion(kernel, hosts));
  const cpusim::CpuSimulator cpuSim(cpusim::CpuSimParams::power9(), threads);
  const gpusim::GpuSimulator gpuSim(gpusim::GpuSimParams::teslaV100());

  std::printf("2DCONV offloading crossover (POWER9 + V100, %d host threads)\n\n",
              threads);
  support::TextTable table({"n", "CPU actual", "GPU actual", "true winner",
                            "selector says", "correct?"});
  for (const std::int64_t n : {64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    const symbolic::Bindings bindings = conv.bindings(n);
    ir::ArrayStore store = conv.allocate(bindings);
    polybench::initializeInputs(conv, bindings, store);
    const double cpu = cpuSim.simulate(kernel, bindings, store).seconds;
    const double gpu = gpuSim.simulate(kernel, bindings, store).totalSeconds;
    const runtime::Decision decision = selector.decide(plan, bindings);
    const runtime::Device winner =
        gpu < cpu ? runtime::Device::Gpu : runtime::Device::Cpu;
    table.addRow({std::to_string(n), support::formatSeconds(cpu),
                  support::formatSeconds(gpu), runtime::toString(winner),
                  runtime::toString(decision.device),
                  winner == decision.device ? "yes" : "NO"});
  }
  std::fputs(table.render(2).c_str(), stdout);
  std::printf(
      "\nThe OpenMP 4.x default would offload every size; a descriptive\n"
      "(OpenMP 5 `loop`-style) runtime armed with these models keeps the\n"
      "small sizes on the host and offloads past the crossover.\n");
  return 0;
}
