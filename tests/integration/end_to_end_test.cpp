// Integration tests: the full paper pipeline — Polybench kernel IR ->
// compile-time analyses -> serialized PAD -> runtime binding -> model
// evaluation -> policy execution on the simulated devices — across module
// boundaries, the way the bench harness and a downstream user drive it.
#include <gtest/gtest.h>

#include <array>

#include "compiler/compiler.h"
#include "oracle/oracle.h"
#include "polybench/polybench.h"
#include "runtime/target_runtime.h"

namespace osel {
namespace {

runtime::TargetRuntime buildRuntime(const std::vector<std::string>& names,
                                    int threads) {
  std::vector<ir::TargetRegion> regions;
  for (const std::string& name : names) {
    for (const auto& kernel : polybench::benchmarkByName(name).kernels())
      regions.push_back(kernel);
  }
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  // Exercise the serialization boundary the paper's two-phase design
  // implies: the runtime sees only the deserialized database.
  db = pad::AttributeDatabase::deserialize(db.serialize());

  runtime::RuntimeOptions options;
  options.selector.cpuThreads = threads;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  runtime::TargetRuntime rt(std::move(db), options);
  for (ir::TargetRegion& region : regions) rt.registerRegion(std::move(region));
  return rt;
}

TEST(EndToEnd, GemmPipelineThroughSerializedPad) {
  runtime::TargetRuntime rt = buildRuntime({"GEMM"}, 160);
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const auto bindings = gemm.bindings(256);
  ir::ArrayStore store = gemm.allocate(bindings);
  polybench::initializeInputs(gemm, bindings, store);

  const runtime::LaunchRecord record =
      rt.launch("gemm_k1", bindings, store, runtime::Policy::ModelGuided);
  EXPECT_GT(record.actualSeconds, 0.0);
  EXPECT_GT(record.decision.cpu.seconds, 0.0);
  EXPECT_GT(record.decision.gpu.totalSeconds, 0.0);
  // 256x256 GEMM on a 160-thread host vs V100: GPU should win both in
  // prediction and in measurement.
  EXPECT_EQ(record.chosen, runtime::Device::Gpu);
}

TEST(EndToEnd, MultiKernelBenchmarkRunsInPipelineOrder) {
  runtime::TargetRuntime rt = buildRuntime({"ATAX"}, 160);
  const polybench::Benchmark& atax = polybench::benchmarkByName("ATAX");
  const auto bindings = atax.bindings(200);
  ir::ArrayStore store = atax.allocate(bindings);
  polybench::initializeInputs(atax, bindings, store);
  for (const auto& kernel : atax.kernels()) {
    const auto record =
        rt.launch(kernel.name, bindings, store, runtime::Policy::ModelGuided);
    EXPECT_GT(record.actualSeconds, 0.0) << kernel.name;
  }
  EXPECT_EQ(rt.log().size(), 2u);
}

TEST(EndToEnd, OracleNeverLosesAcrossSuiteSubset) {
  runtime::TargetRuntime rt = buildRuntime({"MVT", "BICG"}, 160);
  for (const char* name : {"MVT", "BICG"}) {
    const polybench::Benchmark& benchmark = polybench::benchmarkByName(name);
    const auto bindings = benchmark.bindings(300);
    ir::ArrayStore store = benchmark.allocate(bindings);
    polybench::initializeInputs(benchmark, bindings, store);
    for (const auto& kernel : benchmark.kernels()) {
      const auto oracle =
          rt.launch(kernel.name, bindings, store, runtime::Policy::Oracle);
      const auto guided = rt.launch(kernel.name, bindings, store,
                                    runtime::Policy::ModelGuided);
      EXPECT_LE(oracle.actualSeconds, guided.actualSeconds + 1e-12)
          << kernel.name;
    }
  }
}

TEST(EndToEnd, ModelGuidedMatchesOneOfTheFixedPolicies) {
  runtime::TargetRuntime rt = buildRuntime({"SYRK"}, 160);
  const polybench::Benchmark& syrk = polybench::benchmarkByName("SYRK");
  const auto bindings = syrk.bindings(200);
  ir::ArrayStore store = syrk.allocate(bindings);
  polybench::initializeInputs(syrk, bindings, store);
  const auto guided =
      rt.launch("syrk_k1", bindings, store, runtime::Policy::ModelGuided);
  const auto fixedPolicy = guided.chosen == runtime::Device::Gpu
                               ? runtime::Policy::AlwaysGpu
                               : runtime::Policy::AlwaysCpu;
  const auto fixed = rt.launch("syrk_k1", bindings, store, fixedPolicy);
  // Same device, so times come from the same simulator configuration.
  EXPECT_EQ(fixed.chosen, guided.chosen);
  EXPECT_NEAR(fixed.actualSeconds, guided.actualSeconds,
              0.2 * guided.actualSeconds);
}

TEST(EndToEnd, DecisionOverheadNegligibleVersusExecution) {
  // §IV.D: the model evaluation must be cheap next to the kernel itself.
  runtime::TargetRuntime rt = buildRuntime({"GEMM"}, 160);
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const auto bindings = gemm.bindings(512);
  ir::ArrayStore store = gemm.allocate(bindings);
  polybench::initializeInputs(gemm, bindings, store);
  const auto record =
      rt.launch("gemm_k1", bindings, store, runtime::Policy::ModelGuided);
  EXPECT_LT(record.decision.overheadSeconds, record.actualSeconds);
  EXPECT_LT(record.decision.overheadSeconds, 1e-3);
}

TEST(EndToEnd, RuntimeBindingChangesDecisionForSameRegion) {
  // The hybrid-analysis point: one compiled artifact, different launch-time
  // values, different devices.
  runtime::TargetRuntime rt = buildRuntime({"GEMM"}, 160);
  const auto& attr = rt.database().at("gemm_k1");
  const runtime::Decision small =
      oracle::decide(rt.selector(), attr, {{"n", 8}});
  const runtime::Decision large =
      oracle::decide(rt.selector(), attr, {{"n", 4096}});
  EXPECT_EQ(large.device, runtime::Device::Gpu);
  // The small case must at minimum predict far smaller GPU benefit.
  EXPECT_LT(small.predictedSpeedup(), large.predictedSpeedup());
}

TEST(EndToEnd, AllSuiteKernelsSurvivePadRoundTripAndDecision) {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const auto& kernel : benchmark.kernels()) regions.push_back(kernel);
  }
  const std::array<mca::MachineModel, 2> models{mca::MachineModel::power9(),
                                                mca::MachineModel::power8()};
  const pad::AttributeDatabase db = compiler::compileAll(regions, models);
  const pad::AttributeDatabase parsed =
      pad::AttributeDatabase::deserialize(db.serialize());
  EXPECT_EQ(parsed.size(), 24u);
  const runtime::OffloadSelector selector{runtime::SelectorConfig{}};
  for (const auto& region : regions) {
    const symbolic::Bindings bindings{{"n", 1100}};
    const runtime::Decision decision =
        oracle::decide(selector, parsed.at(region.name), bindings);
    EXPECT_GT(decision.cpu.seconds, 0.0) << region.name;
    EXPECT_GT(decision.gpu.totalSeconds, 0.0) << region.name;
  }
}

}  // namespace
}  // namespace osel
