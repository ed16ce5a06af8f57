// Analysis-level expectations for the Polybench kernels: IPDA coalescing
// verdicts and compiler features must match what the loop structure implies.
#include <gtest/gtest.h>

#include <array>

#include "compiler/compiler.h"
#include "ipda/ipda.h"
#include "polybench/polybench.h"

namespace osel::polybench {
namespace {

const ir::TargetRegion& kernelOf(const std::string& benchmark, std::size_t index) {
  return benchmarkByName(benchmark).kernels().at(index);
}

ipda::Analysis::SiteCounts countsFor(const ir::TargetRegion& region,
                                     std::int64_t n) {
  return ipda::Analysis::analyze(region).classifySites({{"n", n}});
}

TEST(PolybenchIpda, GemmIsFullyCoalescedOrUniform) {
  // Thread var j: A[i][k] uniform, B[k][j] + C accesses coalesced.
  const auto counts = countsFor(kernelOf("GEMM", 0), 1100);
  EXPECT_EQ(counts.strided, 0);
  EXPECT_EQ(counts.irregular, 0);
  EXPECT_GT(counts.coalesced, 0);
  EXPECT_GT(counts.uniform, 0);
}

TEST(PolybenchIpda, MvtKernelsContrastInCoalescing) {
  // mvt_k1 reads A[i][j] with thread var i -> strided by n.
  const auto k1 = countsFor(kernelOf("MVT", 0), 1100);
  EXPECT_GT(k1.strided, 0);
  // mvt_k2 reads A[j][i] with thread var i -> coalesced.
  const auto k2 = countsFor(kernelOf("MVT", 1), 1100);
  EXPECT_EQ(k2.strided, 0);
}

TEST(PolybenchIpda, AtaxKernelsContrastInCoalescing) {
  const auto k1 = countsFor(kernelOf("ATAX", 0), 1100);  // A[i][j], thread i
  EXPECT_GT(k1.strided, 0);
  const auto k2 = countsFor(kernelOf("ATAX", 1), 1100);  // A[i][j], thread j
  EXPECT_EQ(k2.strided, 0);
  EXPECT_GT(k2.coalesced, 0);
}

TEST(PolybenchIpda, SyrkHasStridedRowAccess) {
  // A[j][k] with thread var j: stride n -> the paper's SYRK coalescing
  // penalty (§IV.E).
  const auto counts = countsFor(kernelOf("SYRK", 0), 1100);
  EXPECT_GT(counts.strided, 0);
}

TEST(PolybenchIpda, Conv2dCoalescedConv3dStrided) {
  // 2DCONV: thread var j is the fastest array dimension -> coalesced.
  const auto conv2d = countsFor(kernelOf("2DCONV", 0), 1100);
  EXPECT_EQ(conv2d.strided, 0);
  EXPECT_EQ(conv2d.irregular, 0);
  // 3DCONV: threads span (i, j) while k is the fastest dimension, so
  // adjacent threads sit n elements apart — heavily memory-bound, the
  // kernel Table I shows flipping from K80 slowdown to V100 speedup.
  const auto conv3d = countsFor(kernelOf("3DCONV", 0), 256);
  EXPECT_GT(conv3d.strided, 0);
  EXPECT_EQ(conv3d.irregular, 0);
}

TEST(PolybenchIpda, CorrStddevBranchExists) {
  // corr_k2 carries the eps-guard conditional the 50%-branch abstraction
  // mis-models (the interpreter resolves it from real data).
  const auto sites = ir::collectAccesses(kernelOf("CORR", 1));
  bool anyGuarded = false;
  for (const auto& site : sites) anyGuarded |= site.branchDepth > 0;
  // The guard itself contains no array access; instead check the region has
  // a conditional statement.
  bool hasIf = false;
  ir::forEachStmt(kernelOf("CORR", 1).body, [&](const ir::Stmt& stmt) {
    hasIf |= stmt.kind() == ir::Stmt::Kind::If;
  });
  EXPECT_TRUE(hasIf);
  (void)anyGuarded;
}

TEST(PolybenchCompiler, AllKernelsAnalyzeCleanly) {
  const std::array<mca::MachineModel, 2> models{mca::MachineModel::power9(),
                                                mca::MachineModel::power8()};
  for (const Benchmark& benchmark : suite()) {
    for (const auto& kernel : benchmark.kernels()) {
      const pad::RegionAttributes attr = compiler::analyzeRegion(kernel, models);
      EXPECT_GT(attr.machineCyclesPerIter.at("POWER9"), 0.0) << kernel.name;
      EXPECT_GT(attr.loadInstsPerIter + attr.storeInstsPerIter, 0.0)
          << kernel.name;
      EXPECT_FALSE(attr.strides.empty()) << kernel.name;
      // All Polybench kernels are F32.
      EXPECT_DOUBLE_EQ(attr.fp64Fraction, 0.0) << kernel.name;
    }
  }
}

TEST(PolybenchCompiler, TriangularKernelsHaveSpecialOps) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  // corr_k2 computes sqrt.
  const pad::RegionAttributes attr =
      compiler::analyzeRegion(kernelOf("CORR", 1), models);
  EXPECT_GT(attr.specialInstsPerIter, 0.0);
}

TEST(PolybenchCompiler, TransferExpressionsMatchRegionAccounting) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const symbolic::Bindings bindings{{"n", 1100}};
  for (const Benchmark& benchmark : suite()) {
    for (const auto& kernel : benchmark.kernels()) {
      const pad::RegionAttributes attr = compiler::analyzeRegion(kernel, models);
      EXPECT_EQ(attr.bytesToDevice.evaluate(bindings),
                kernel.bytesToDevice(bindings))
          << kernel.name;
      EXPECT_EQ(attr.bytesFromDevice.evaluate(bindings),
                kernel.bytesFromDevice(bindings))
          << kernel.name;
      EXPECT_EQ(attr.flatTripCount.evaluate(bindings),
                kernel.flatTripCount(bindings))
          << kernel.name;
    }
  }
}

TEST(PolybenchIpda, StrideIsTheThreadVariablesFiniteDifference) {
  // IPDA reads an affine address's stride off as the thread variable's
  // coefficient; that must equal the definition, f(t+1) - f(t), exactly.
  std::size_t sites = 0;
  std::size_t affine = 0;
  for (const Benchmark& benchmark : suite()) {
    for (const ir::TargetRegion& region : benchmark.kernels()) {
      const ipda::Analysis analysis = ipda::Analysis::analyze(region);
      for (const ipda::StrideRecord& record : analysis.records()) {
        ++sites;
        if (!record.affineInThreadVar) continue;
        ++affine;
        EXPECT_EQ(record.stride,
                  record.linearIndex.differenceIn(analysis.threadVar()))
            << region.name << " " << record.site.array;
        EXPECT_EQ(record.linearIndex.coefficientOf(analysis.threadVar()),
                  record.linearIndex.differenceIn(analysis.threadVar()))
            << region.name << " " << record.site.array;
      }
    }
  }
  EXPECT_EQ(sites, 100U);
  EXPECT_GT(affine, 0U);
}

}  // namespace
}  // namespace osel::polybench
