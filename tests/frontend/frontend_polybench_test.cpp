// Cross-validation: Polybench kernels written in the kernel language must
// be indistinguishable — to the interpreter, to IPDA, and to the whole
// compile-time analysis — from the builder-constructed versions the suite
// ships. This pins the frontend's semantics to the IR's.
#include <gtest/gtest.h>

#include <array>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "ipda/ipda.h"
#include "ir/interpreter.h"
#include "polybench/polybench.h"
#include "runtime/selector.h"

namespace osel::frontend {
namespace {

constexpr char kGemmSource[] = R"(
kernel gemm_k1(n) {
  array A[n][n] : f32 to;
  array B[n][n] : f32 to;
  array C[n][n] : f32 tofrom;
  parallel for i in 0..n, j in 0..n {
    acc = C[i][j] * 1.2;
    for k in 0..n {
      acc = acc + 1.5 * A[i][k] * B[k][j];
    }
    C[i][j] = acc;
  }
}
)";

constexpr char kAtaxSource[] = R"(
kernel atax_k1(n) {
  array A[n][n] : f32 to;
  array x[n] : f32 to;
  array tmp[n] : f32 from;
  parallel for i in 0..n {
    acc = 0.0;
    for j in 0..n {
      acc = acc + A[i][j] * x[j];
    }
    tmp[i] = acc;
  }
}
kernel atax_k2(n) {
  array A[n][n] : f32 to;
  array tmp[n] : f32 to;
  array y[n] : f32 from;
  parallel for j in 0..n {
    acc = 0.0;
    for i in 0..n {
      acc = acc + A[i][j] * tmp[i];
    }
    y[j] = acc;
  }
}
)";

void expectSameAnalyses(const ir::TargetRegion& parsed,
                        const ir::TargetRegion& built,
                        const symbolic::Bindings& bindings) {
  // IPDA: same strides per site.
  const ipda::Analysis parsedIpda = ipda::Analysis::analyze(parsed);
  const ipda::Analysis builtIpda = ipda::Analysis::analyze(built);
  ASSERT_EQ(parsedIpda.records().size(), builtIpda.records().size());
  for (std::size_t i = 0; i < parsedIpda.records().size(); ++i) {
    EXPECT_EQ(parsedIpda.records()[i].stride, builtIpda.records()[i].stride) << i;
    EXPECT_EQ(parsedIpda.records()[i].site.isStore,
              builtIpda.records()[i].site.isStore)
        << i;
  }
  // Full compile-time attributes.
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const pad::RegionAttributes a = compiler::analyzeRegion(parsed, models);
  const pad::RegionAttributes b = compiler::analyzeRegion(built, models);
  EXPECT_DOUBLE_EQ(a.compInstsPerIter, b.compInstsPerIter);
  EXPECT_DOUBLE_EQ(a.loadInstsPerIter, b.loadInstsPerIter);
  EXPECT_DOUBLE_EQ(a.storeInstsPerIter, b.storeInstsPerIter);
  EXPECT_DOUBLE_EQ(a.machineCyclesPerIter.at("POWER9"),
                   b.machineCyclesPerIter.at("POWER9"));
  EXPECT_EQ(a.flatTripCount.evaluate(bindings),
            b.flatTripCount.evaluate(bindings));
  EXPECT_EQ(a.bytesToDevice.evaluate(bindings),
            b.bytesToDevice.evaluate(bindings));
  EXPECT_EQ(a.bytesFromDevice.evaluate(bindings),
            b.bytesFromDevice.evaluate(bindings));
}

void expectSameExecution(const ir::TargetRegion& parsed,
                         const ir::TargetRegion& built,
                         const symbolic::Bindings& bindings) {
  ir::ArrayStore parsedStore = ir::allocateArrays(parsed, bindings);
  ir::ArrayStore builtStore = ir::allocateArrays(built, bindings);
  std::size_t salt = 1;
  for (auto& [name, data] : parsedStore) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double v = static_cast<double>((i * salt + 3) % 257) / 257.0;
      data[i] = v;
      builtStore.at(name)[i] = v;
    }
    ++salt;
  }
  ir::CompiledRegion(parsed, bindings).runAll(parsedStore);
  ir::CompiledRegion(built, bindings).runAll(builtStore);
  for (const auto& [name, expected] : builtStore)
    EXPECT_EQ(parsedStore.at(name), expected) << name;
}

TEST(FrontendPolybench, GemmEquivalentToBuiltinKernel) {
  const ir::TargetRegion parsed = parseKernels(kGemmSource)[0];
  const ir::TargetRegion& built =
      polybench::benchmarkByName("GEMM").kernels()[0];
  const symbolic::Bindings bindings{{"n", 24}};
  expectSameAnalyses(parsed, built, bindings);
  expectSameExecution(parsed, built, bindings);
}

TEST(FrontendPolybench, AtaxKernelsEquivalentToBuiltins) {
  const auto parsed = parseKernels(kAtaxSource);
  const auto& builtins = polybench::benchmarkByName("ATAX").kernels();
  ASSERT_EQ(parsed.size(), 2u);
  const symbolic::Bindings bindings{{"n", 32}};
  for (std::size_t k = 0; k < 2; ++k) {
    SCOPED_TRACE(parsed[k].name);
    expectSameAnalyses(parsed[k], builtins[k], bindings);
  }
}

TEST(FrontendPolybench, ParsedKernelDrivesSelectorIdentically) {
  const ir::TargetRegion parsed = parseKernels(kGemmSource)[0];
  const ir::TargetRegion& built =
      polybench::benchmarkByName("GEMM").kernels()[0];
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const runtime::OffloadSelector selector{runtime::SelectorConfig{}};
  const symbolic::Bindings bindings{{"n", 1100}};
  const auto a = selector.decide(
      selector.compile(compiler::analyzeRegion(parsed, models)), bindings);
  const auto b = selector.decide(
      selector.compile(compiler::analyzeRegion(built, models)), bindings);
  EXPECT_EQ(a.device, b.device);
  EXPECT_DOUBLE_EQ(a.cpu.seconds, b.cpu.seconds);
  EXPECT_DOUBLE_EQ(a.gpu.totalSeconds, b.gpu.totalSeconds);
}

}  // namespace
}  // namespace osel::frontend
