// Shared helpers of the test_batch_decide binary: the bit-identity
// comparisons its equivalence suites assert with, and the heap-allocation
// count its allocation pins read (counting_new.cpp replaces the global
// operator new for the whole binary).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "obs/explain.h"
#include "runtime/selector.h"

namespace osel::runtime::batch_test {

/// Global operator new calls so far in this process.
[[nodiscard]] std::uint64_t allocationCount();

inline void expectSameBits(double batched, double scalar, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched),
            std::bit_cast<std::uint64_t>(scalar))
      << field << ": batched=" << batched << " scalar=" << scalar;
}

/// Bit-identical equality of everything except overheadSeconds (wall time;
/// batch cache hits deliberately report the amortized batch cost).
inline void expectIdenticalDecisions(const Decision& batched,
                                     const Decision& scalar) {
  EXPECT_EQ(batched.device, scalar.device);
  EXPECT_EQ(batched.valid, scalar.valid);
  EXPECT_EQ(batched.diagnostic, scalar.diagnostic);

  expectSameBits(batched.cpu.forkJoinCycles, scalar.cpu.forkJoinCycles,
                 "cpu.forkJoinCycles");
  expectSameBits(batched.cpu.scheduleCycles, scalar.cpu.scheduleCycles,
                 "cpu.scheduleCycles");
  expectSameBits(batched.cpu.workCycles, scalar.cpu.workCycles,
                 "cpu.workCycles");
  expectSameBits(batched.cpu.loopOverheadCycles, scalar.cpu.loopOverheadCycles,
                 "cpu.loopOverheadCycles");
  expectSameBits(batched.cpu.tlbCycles, scalar.cpu.tlbCycles, "cpu.tlbCycles");
  expectSameBits(batched.cpu.falseSharingCycles, scalar.cpu.falseSharingCycles,
                 "cpu.falseSharingCycles");
  expectSameBits(batched.cpu.totalCycles, scalar.cpu.totalCycles,
                 "cpu.totalCycles");
  expectSameBits(batched.cpu.seconds, scalar.cpu.seconds, "cpu.seconds");

  EXPECT_EQ(batched.gpu.threadsPerBlock, scalar.gpu.threadsPerBlock);
  EXPECT_EQ(batched.gpu.blocks, scalar.gpu.blocks);
  expectSameBits(batched.gpu.ompRep, scalar.gpu.ompRep, "gpu.ompRep");
  expectSameBits(batched.gpu.rep, scalar.gpu.rep, "gpu.rep");
  EXPECT_EQ(batched.gpu.activeSms, scalar.gpu.activeSms);
  expectSameBits(batched.gpu.activeWarpsPerSm, scalar.gpu.activeWarpsPerSm,
                 "gpu.activeWarpsPerSm");
  expectSameBits(batched.gpu.memCycles, scalar.gpu.memCycles, "gpu.memCycles");
  expectSameBits(batched.gpu.compCycles, scalar.gpu.compCycles,
                 "gpu.compCycles");
  expectSameBits(batched.gpu.mwpWithoutBw, scalar.gpu.mwpWithoutBw,
                 "gpu.mwpWithoutBw");
  expectSameBits(batched.gpu.mwpPeakBw, scalar.gpu.mwpPeakBw, "gpu.mwpPeakBw");
  expectSameBits(batched.gpu.mwp, scalar.gpu.mwp, "gpu.mwp");
  expectSameBits(batched.gpu.cwp, scalar.gpu.cwp, "gpu.cwp");
  EXPECT_EQ(batched.gpu.execCase, scalar.gpu.execCase);
  expectSameBits(batched.gpu.kernelCycles, scalar.gpu.kernelCycles,
                 "gpu.kernelCycles");
  expectSameBits(batched.gpu.kernelSeconds, scalar.gpu.kernelSeconds,
                 "gpu.kernelSeconds");
  expectSameBits(batched.gpu.transferSeconds, scalar.gpu.transferSeconds,
                 "gpu.transferSeconds");
  expectSameBits(batched.gpu.launchSeconds, scalar.gpu.launchSeconds,
                 "gpu.launchSeconds");
  expectSameBits(batched.gpu.totalSeconds, scalar.gpu.totalSeconds,
                 "gpu.totalSeconds");
}

/// Bit-identical equality of two explain records' header and model terms;
/// seq, atNs and overheadSeconds (ring order, timestamps, wall time) are
/// excluded.
inline void expectIdenticalExplains(const obs::DecisionExplain& a,
                                    const obs::DecisionExplain& b) {
  EXPECT_EQ(a.regionView(), b.regionView());
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.chosenGpu, b.chosenGpu);
  expectSameBits(a.predictedSpeedup, b.predictedSpeedup, "predictedSpeedup");
  const double cpuA[] = {a.cpu.machineCyclesPerIter, a.cpu.tripCount,
                         a.cpu.forkJoinCycles,       a.cpu.scheduleCycles,
                         a.cpu.workCycles,           a.cpu.loopOverheadCycles,
                         a.cpu.tlbCycles,            a.cpu.falseSharingCycles,
                         a.cpu.totalCycles,          a.cpu.seconds};
  const double cpuB[] = {b.cpu.machineCyclesPerIter, b.cpu.tripCount,
                         b.cpu.forkJoinCycles,       b.cpu.scheduleCycles,
                         b.cpu.workCycles,           b.cpu.loopOverheadCycles,
                         b.cpu.tlbCycles,            b.cpu.falseSharingCycles,
                         b.cpu.totalCycles,          b.cpu.seconds};
  for (std::size_t i = 0; i < std::size(cpuA); ++i) {
    expectSameBits(cpuA[i], cpuB[i], "cpu term");
  }
  const double gpuA[] = {a.gpu.ompRep,          a.gpu.mwp,
                         a.gpu.cwp,             a.gpu.memCycles,
                         a.gpu.compCycles,      a.gpu.activeWarpsPerSm,
                         a.gpu.coalMemInsts,    a.gpu.uncoalMemInsts,
                         a.gpu.coalescedFraction, a.gpu.bytesToDevice,
                         a.gpu.bytesFromDevice, a.gpu.kernelSeconds,
                         a.gpu.transferSeconds, a.gpu.launchSeconds,
                         a.gpu.totalSeconds};
  const double gpuB[] = {b.gpu.ompRep,          b.gpu.mwp,
                         b.gpu.cwp,             b.gpu.memCycles,
                         b.gpu.compCycles,      b.gpu.activeWarpsPerSm,
                         b.gpu.coalMemInsts,    b.gpu.uncoalMemInsts,
                         b.gpu.coalescedFraction, b.gpu.bytesToDevice,
                         b.gpu.bytesFromDevice, b.gpu.kernelSeconds,
                         b.gpu.transferSeconds, b.gpu.launchSeconds,
                         b.gpu.totalSeconds};
  for (std::size_t i = 0; i < std::size(gpuA); ++i) {
    expectSameBits(gpuA[i], gpuB[i], "gpu term");
  }
  EXPECT_EQ(a.gpu.execCase, b.gpu.execCase);
}

}  // namespace osel::runtime::batch_test
