// Equivalence and overhead pins for TargetRuntime::decideBatch: the SoA
// batch path must produce Decisions bit-identical to looped scalar decide()
// — same device, same diagnostics, same prediction fields down to the last
// mantissa bit — over the full Polybench region × size grid, including
// degenerate sizes, missing regions, unbound symbols, duplicate rows, and
// cache hit/miss interleavings. Also pins the steady-state zero-allocation
// guarantee of the batch path (own test binary: the counting operator new
// below must be the only replacement in the link).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "polybench/polybench.h"
#include "runtime/target_runtime.h"
#include "support/check.h"

// --- Global allocation counter ----------------------------------------------
// Replaces the global non-aligned new/delete for this test binary so the
// steady-state test below can assert decideBatch never touches the heap.
// Counting only; allocation behaviour is unchanged.

namespace {
std::atomic<std::uint64_t> gAllocations{0};

// noinline keeps GCC from tracking malloc/free provenance through the
// replaced operators and raising a spurious -Wmismatched-new-delete.
[[gnu::noinline]] void* countedAlloc(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }

namespace osel::runtime {
namespace {

void expectSameBits(double batched, double scalar, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched),
            std::bit_cast<std::uint64_t>(scalar))
      << field << ": batched=" << batched << " scalar=" << scalar;
}

/// Bit-identical equality of everything except overheadSeconds (wall time;
/// batch cache hits deliberately report the amortized batch cost).
void expectIdenticalDecisions(const Decision& batched, const Decision& scalar) {
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

/// One runtime over every Polybench kernel. `scalarTwin()` is constructed
/// identically; both see each key for the first time in the same test, so
/// batch misses compare against scalar misses and batch hits against
/// decisions memoized from identical inputs.
TargetRuntime makeSuiteRuntime() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  TargetRuntime runtime(compiler::compileAll(regions, models), options);
  for (ir::TargetRegion& region : regions) {
    runtime.registerRegion(std::move(region));
  }
  return runtime;
}

TargetRuntime& batchRuntime() {
  static TargetRuntime runtime = makeSuiteRuntime();
  return runtime;
}

TargetRuntime& scalarTwin() {
  static TargetRuntime runtime = makeSuiteRuntime();
  return runtime;
}

/// Runs `requests` through decideBatch on the shared batch runtime and
/// through looped scalar decide() on the twin, then asserts row-by-row
/// bit-identity.
void expectBatchMatchesScalar(const std::vector<DecideRequest>& requests) {
  std::vector<Decision> batched(requests.size());
  batchRuntime().decideBatch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i) + " region '" +
                 std::string(requests[i].region) + "'");
    const Decision scalar = scalarTwin().decide(
        std::string(requests[i].region), *requests[i].bindings);
    expectIdenticalDecisions(batched[i], scalar);
  }
}

TEST(BatchDecide, MatchesScalarOverPolybenchGrid) {
  // Every suite kernel at several sizes, shuffled so the batch spans many
  // region groups in non-sorted order: first pass is all cache misses (SoA
  // evaluation vs decideCompiled), second pass all hits (bulk findMany vs
  // scalar find).
  std::vector<symbolic::Bindings> bindings;
  std::vector<std::string> names;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const std::int64_t n : {3, 7, 32, 256, 1100}) {
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        names.push_back(kernel.name);
        bindings.push_back(benchmark.bindings(n));
      }
    }
  }
  std::vector<DecideRequest> requests(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Stride through the list so adjacent rows rarely share a region.
    const std::size_t j = (i * 17) % names.size();
    requests[i] = {names[j], &bindings[j]};
  }
  expectBatchMatchesScalar(requests);  // miss path
  expectBatchMatchesScalar(requests);  // hit path
}

TEST(BatchDecide, MatchesScalarOnDegenerateSizes) {
  // n < 3 collapses trip counts toward zero and drives the models into
  // degenerate/non-finite territory; the batch path must reproduce the
  // scalar bits (including NaN payloads) and diagnostics exactly.
  std::vector<symbolic::Bindings> bindings;
  std::vector<std::string> names;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    // Benchmark::bindings refuses sizes its kernels cannot execute, but
    // decide() only models — force every parameter to the degenerate value.
    const symbolic::Bindings shape = benchmark.bindings(8);
    for (const std::int64_t n : {0, 1, 2}) {
      symbolic::Bindings degenerate;
      for (const auto& [symbol, value] : shape) {
        (void)value;
        degenerate[symbol] = n;
      }
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        names.push_back(kernel.name);
        bindings.push_back(degenerate);
      }
    }
  }
  std::vector<DecideRequest> requests(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    requests[i] = {names[i], &bindings[i]};
  }
  expectBatchMatchesScalar(requests);
}

TEST(BatchDecide, MatchesScalarOnMissingRegionsAndUnboundSymbols) {
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const std::string known = gemm.kernels()[0].name;
  const symbolic::Bindings bound = gemm.bindings(64);
  const symbolic::Bindings empty;                     // unbound "n"
  const symbolic::Bindings wrongSymbol{{"m", 64}};    // still unbound "n"
  const std::string missing = "no_such_region";
  const std::string nearMiss = "gemm_k9";  // close to a real name
  const std::vector<DecideRequest> requests{
      {known, &bound},        {missing, &bound},  {known, &empty},
      {nearMiss, &bound},     {known, &wrongSymbol}, {missing, &empty},
      {known, &bound},
  };
  expectBatchMatchesScalar(requests);
}

TEST(BatchDecide, MatchesScalarUnderCacheInterleavingsAndDuplicates) {
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const polybench::Benchmark& mvt = polybench::benchmarkByName("MVT");
  const std::string gemmK = gemm.kernels()[0].name;
  const std::string mvtK0 = mvt.kernels()[0].name;
  const std::string mvtK1 = mvt.kernels()[1].name;
  const symbolic::Bindings warm = gemm.bindings(48);
  const symbolic::Bindings cold = gemm.bindings(49);
  const symbolic::Bindings mvtWarm = mvt.bindings(48);
  const symbolic::Bindings mvtCold = mvt.bindings(49);
  // Warm one key per region in BOTH runtimes so the batch interleaves
  // in-cache rows, fresh rows, and duplicates of each within one group.
  (void)batchRuntime().decide(gemmK, warm);
  (void)scalarTwin().decide(gemmK, warm);
  (void)batchRuntime().decide(mvtK0, mvtWarm);
  (void)scalarTwin().decide(mvtK0, mvtWarm);
  const std::vector<DecideRequest> requests{
      {gemmK, &warm}, {gemmK, &cold}, {gemmK, &warm}, {gemmK, &cold},
      {mvtK0, &mvtWarm}, {mvtK0, &mvtCold}, {mvtK1, &mvtWarm},
      {mvtK0, &mvtWarm}, {gemmK, &cold},
  };
  expectBatchMatchesScalar(requests);
}

TEST(BatchDecide, CacheStatsInvariantHolds) {
  // Drive the bulk findMany/insertMany path directly (each test runs in its
  // own process, so stats cannot be inherited from earlier tests): one batch
  // of fresh keys (all misses), then the same batch again (all hits).
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const std::string region = gemm.kernels()[0].name;
  const symbolic::Bindings a = gemm.bindings(201);
  const symbolic::Bindings b = gemm.bindings(202);
  const std::vector<DecideRequest> requests{
      {region, &a}, {region, &b}, {region, &a}};
  std::vector<Decision> out(requests.size());
  batchRuntime().decideBatch(requests, out);
  batchRuntime().decideBatch(requests, out);
  const DecisionCache::Stats stats = batchRuntime().decisionCacheStats(region);
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(BatchDecide, EmptyBatchIsANoOp) {
  std::vector<Decision> out;
  batchRuntime().decideBatch({}, out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchDecide, RejectsUndersizedOutputSpan) {
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const symbolic::Bindings bindings = gemm.bindings(32);
  const std::vector<DecideRequest> requests{
      {gemm.kernels()[0].name, &bindings},
      {gemm.kernels()[0].name, &bindings},
  };
  std::vector<Decision> out(1);
  EXPECT_THROW(batchRuntime().decideBatch(requests, out),
               support::PreconditionError);
}

TEST(BatchDecide, SteadyStateBatchDoesNotAllocate) {
  // Mixed regions and sizes, all previously decided: the second call runs
  // the grouped cache-hit path end to end with zero heap traffic (arena
  // vectors and the per-thread scratch are sized by the first call).
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const polybench::Benchmark& mvt = polybench::benchmarkByName("MVT");
  std::vector<std::string> names;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : {96, 128, 192, 256}) {
    names.push_back(gemm.kernels()[0].name);
    bindings.push_back(gemm.bindings(n));
    names.push_back(mvt.kernels()[0].name);
    bindings.push_back(mvt.bindings(n));
  }
  std::vector<DecideRequest> requests(64);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i] = {names[i % names.size()], &bindings[i % bindings.size()]};
  }
  std::vector<Decision> out(requests.size());
  batchRuntime().decideBatch(requests, out);  // warm caches + arena
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  batchRuntime().decideBatch(requests, out);
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state decideBatch allocated " << (after - before) << " times";
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);
}

TEST(BatchDecide, FullCacheMissBatchDoesNotAllocate) {
  // One region's cache filled to capacity by a first batch of fresh sizes;
  // a second batch of 64 sizes it has never seen then misses on every row,
  // evaluates it, and evicts the least-recently-used entry for each insert.
  // That path reuses the evicted entries' storage and the warm arena, so it
  // must not touch the heap either.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const std::array<ir::TargetRegion, 1> regions{gemm.kernels()[0]};
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  TargetRuntime runtime(compiler::compileAll(regions, models), options);
  runtime.registerRegion(regions[0]);
  const std::string& region = regions[0].name;
  const std::size_t capacity = options.decisionCacheCapacity;
  constexpr std::size_t kRows = 64;
  std::vector<symbolic::Bindings> bindings;
  for (std::size_t i = 0; i < capacity + kRows; ++i) {
    bindings.push_back(gemm.bindings(64 + 4 * static_cast<std::int64_t>(i)));
  }
  std::vector<DecideRequest> fill(capacity);
  for (std::size_t i = 0; i < capacity; ++i) fill[i] = {region, &bindings[i]};
  std::vector<DecideRequest> fresh(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    fresh[i] = {region, &bindings[capacity + i]};
  }
  std::vector<Decision> out(std::max(capacity, kRows));
  runtime.decideBatch(fill, out);
  ASSERT_EQ(runtime.decisionCacheStats(region).insertions, capacity);
  ASSERT_EQ(runtime.decisionCacheStats(region).evictions, 0u);

  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  runtime.decideBatch(fresh, out);
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "evicting decideBatch allocated " << (after - before) << " times";
  const DecisionCache::Stats stats = runtime.decisionCacheStats(region);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, kRows);
  EXPECT_EQ(stats.insertions, capacity + kRows);
  for (std::size_t i = 0; i < kRows; ++i) EXPECT_TRUE(out[i].valid);
}

}  // namespace
}  // namespace osel::runtime
