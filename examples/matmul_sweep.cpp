// matmul_sweep — an application view of device selection.
//
// A workload that launches GEMMs of many sizes (as an application with
// irregular problem sizes would). Runs it under all four runtime policies
// and reports the cumulative wall time each policy accumulates, showing
// model-guided selection tracking the oracle.
//
// Build & run:  ./build/examples/matmul_sweep [--threads N]
#include <array>
#include <cstdio>
#include <vector>

#include "compiler/compiler.h"
#include "polybench/polybench.h"
#include "runtime/target_runtime.h"
#include "support/cli.h"
#include "support/format.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace osel;
  const auto cl = support::CommandLine::parse(argc, argv);
  const auto threads = static_cast<int>(cl.intOption("threads", 160));

  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const ir::TargetRegion& kernel = gemm.kernels()[0];

  const std::array<mca::MachineModel, 1> hosts{mca::MachineModel::power9()};
  pad::AttributeDatabase database;
  database.insert(compiler::analyzeRegion(kernel, hosts));

  runtime::RuntimeOptions options;
  options.selector.cpuThreads = threads;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  runtime::TargetRuntime rt(std::move(database), options);
  rt.registerRegion(kernel);

  const std::vector<std::int64_t> sizes{32, 64, 96, 128, 256, 384, 512,
                                        768, 1024, 1536, 2048};
  std::printf("GEMM sweep over %zu sizes (POWER9 + V100, %d host threads)\n\n",
              sizes.size(), threads);

  support::TextTable table({"Policy", "Cumulative time", "vs host-only"});
  double hostOnly = 0.0;
  for (const runtime::Policy policy :
       {runtime::Policy::AlwaysCpu, runtime::Policy::AlwaysGpu,
        runtime::Policy::ModelGuided, runtime::Policy::Oracle}) {
    double total = 0.0;
    int offloaded = 0;
    for (const std::int64_t n : sizes) {
      const symbolic::Bindings bindings = gemm.bindings(n);
      ir::ArrayStore store = gemm.allocate(bindings);
      polybench::initializeInputs(gemm, bindings, store);
      const runtime::LaunchRecord record =
          rt.launch(kernel.name, bindings, store, policy);
      total += record.actualSeconds;
      if (record.chosen == runtime::Device::Gpu) ++offloaded;
    }
    if (policy == runtime::Policy::AlwaysCpu) hostOnly = total;
    table.addRow({std::string(runtime::toString(policy)) + " (" +
                      std::to_string(offloaded) + "/" +
                      std::to_string(sizes.size()) + " offloaded)",
                  support::formatSeconds(total),
                  support::formatSpeedup(hostOnly / total)});
  }
  std::fputs(table.render(2).c_str(), stdout);
  return 0;
}
