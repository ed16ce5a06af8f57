#include "bench/common/platform.h"

#include <algorithm>
#include <array>

#include "compiler/compiler.h"
#include "runtime/selector.h"

namespace osel::bench {

Platform Platform::power9V100(int threads) {
  Platform p;
  p.name = "POWER9 + Tesla V100 (NVLink2)";
  p.cpuSim = cpusim::CpuSimParams::power9();
  p.gpuSim = gpusim::GpuSimParams::teslaV100();
  p.cpuModel = cpumodel::CpuModelParams::power9();
  p.gpuModel = gpumodel::GpuDeviceParams::teslaV100();
  p.mcaModel = mca::MachineModel::power9();
  p.threads = threads;
  return p;
}

Platform Platform::power8K80(int threads) {
  Platform p;
  p.name = "POWER8 + Tesla K80 (PCIe3)";
  p.cpuSim = cpusim::CpuSimParams::power8();
  p.gpuSim = gpusim::GpuSimParams::teslaK80();
  p.cpuModel = cpumodel::CpuModelParams::power8();
  p.gpuModel = gpumodel::GpuDeviceParams::teslaK80();
  p.mcaModel = mca::MachineModel::power8();
  p.threads = threads;
  return p;
}

std::vector<KernelMeasurement> measureBenchmark(
    const polybench::Benchmark& benchmark, std::int64_t n,
    const Platform& platform) {
  const symbolic::Bindings bindings = benchmark.bindings(n);
  ir::ArrayStore store = benchmark.allocate(bindings);
  polybench::initializeInputs(benchmark, bindings, store);

  const cpusim::CpuSimulator cpuSim(platform.cpuSim, platform.threads);
  const gpusim::GpuSimulator gpuSim(platform.gpuSim);

  const std::array<mca::MachineModel, 1> models{platform.mcaModel};
  runtime::SelectorConfig config;
  config.cpuParams = platform.cpuModel;
  config.cpuThreads = platform.threads;
  config.gpuParams = platform.gpuModel;
  config.mcaModelName = platform.mcaModel.name;
  const runtime::OffloadSelector selector(config);

  std::vector<KernelMeasurement> results;
  for (const ir::TargetRegion& kernel : benchmark.kernels()) {
    KernelMeasurement m;
    m.benchmark = benchmark.name();
    m.kernel = kernel.name;
    m.n = n;
    m.actualCpuSeconds = cpuSim.simulate(kernel, bindings, store).seconds;
    m.actualGpuSeconds = gpuSim.simulate(kernel, bindings, store).totalSeconds;

    const runtime::CompiledRegionPlan plan =
        selector.compile(compiler::analyzeRegion(kernel, models));
    const runtime::Decision decision = selector.decide(plan, bindings);
    m.predictedCpuSeconds = decision.cpu.seconds;
    m.predictedGpuSeconds = decision.gpu.totalSeconds;
    results.push_back(m);
  }
  return results;
}

std::int64_t scaledSize(const polybench::Benchmark& benchmark,
                        polybench::Mode mode, std::int64_t scale) {
  const std::int64_t base = benchmark.size(mode);
  if (mode == polybench::Mode::Test || scale <= 1) return base;
  return std::max<std::int64_t>(16, base / scale);
}

}  // namespace osel::bench
