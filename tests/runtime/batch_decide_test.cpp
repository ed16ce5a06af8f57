// Equivalence and overhead pins for TargetRuntime::decideBatch: the SoA
// batch path must produce Decisions bit-identical to looped scalar decide()
// — same device, same diagnostics, same prediction fields down to the last
// mantissa bit — over the full Polybench region × size grid, including
// degenerate sizes, missing regions, unbound symbols, duplicate rows, and
// cache hit/miss interleavings. Regions the runtime decides without a
// registered plan (PAD entry but no registration) must match the
// interpreted test oracle, and a plan over more than kMaxSlots symbols must
// degrade with the limit in its diagnostic. Also pins the steady-state
// zero-allocation guarantee of the batch path and of scalar decide(), which
// runs as a one-row region group on the same thread-local arena (own test
// binary: the counting operator new in counting_new.cpp must be the only
// replacement in the link).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "polybench/polybench.h"
#include "runtime/target_runtime.h"
#include "support/check.h"

#include "batch_test_support.h"

namespace osel::runtime {
namespace {

using batch_test::allocationCount;
using batch_test::expectIdenticalDecisions;

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
  // evaluation over many rows vs one-row groups), second pass all hits
  // (bulk findMany vs one-row findMany).
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

TEST(BatchDecide, RejectsRequestWithoutBindingsBeforeDecidingAnyRow) {
  // A default-constructed DecideRequest has no bindings. The batch must be
  // refused up front: the valid row ahead of it is neither decided nor
  // probed in the cache.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const std::string region = gemm.kernels()[0].name;
  const symbolic::Bindings bindings = gemm.bindings(333);
  std::vector<DecideRequest> requests{{region, &bindings}, DecideRequest{}};
  Decision untouched;
  untouched.diagnostic = "untouched";
  std::vector<Decision> out(requests.size(), untouched);
  const std::uint64_t lookupsBefore =
      batchRuntime().decisionCacheStats(region).lookups;
  EXPECT_THROW(batchRuntime().decideBatch(requests, out),
               support::PreconditionError);
  EXPECT_EQ(out[0].diagnostic, "untouched");
  EXPECT_EQ(out[1].diagnostic, "untouched");
  EXPECT_EQ(batchRuntime().decisionCacheStats(region).lookups, lookupsBefore);
  // A null-bindings row in its own region group is refused the same way.
  requests[1].region = "no_such_region";
  EXPECT_THROW(batchRuntime().decideBatch(requests, out),
               support::PreconditionError);
  EXPECT_EQ(out[0].diagnostic, "untouched");
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
  const std::uint64_t before = allocationCount();
  batchRuntime().decideBatch(requests, out);
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state decideBatch allocated " << (after - before) << " times";
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);
}

/// A runtime over GEMM's kernel alone, so one region's cache fills and
/// evicts under the default capacity; `trace` is attached when given.
TargetRuntime makeGemmRuntime(const ir::TargetRegion& kernel,
                              obs::TraceSession* trace = nullptr) {
  const std::array<ir::TargetRegion, 1> regions{kernel};
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.trace = trace;
  TargetRuntime runtime(compiler::compileAll(regions, models), options);
  runtime.registerRegion(kernel);
  return runtime;
}

TEST(BatchDecide, FullCacheMissBatchDoesNotAllocate) {
  // One region's cache filled to capacity by a first batch of fresh sizes;
  // a second batch of 64 sizes it has never seen then misses on every row,
  // evaluates it, and evicts the least-recently-used entry for each insert.
  // That path reuses the evicted entries' storage and the warm arena, so it
  // must not touch the heap either.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  TargetRuntime runtime = makeGemmRuntime(gemm.kernels()[0]);
  const std::string& region = gemm.kernels()[0].name;
  const std::size_t capacity = RuntimeOptions{}.decisionCacheCapacity;
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

  const std::uint64_t before = allocationCount();
  runtime.decideBatch(fresh, out);
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "evicting decideBatch allocated " << (after - before) << " times";
  const DecisionCache::Stats stats = runtime.decisionCacheStats(region);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, kRows);
  EXPECT_EQ(stats.insertions, capacity + kRows);
  for (std::size_t i = 0; i < kRows; ++i) EXPECT_TRUE(out[i].valid);
}

TEST(BatchDecide, TracedFullMissBatchDoesNotAllocate) {
  // FullCacheMissBatchDoesNotAllocate with a trace session attached, as
  // oseld runs: the 64 fresh rows also fill the arena's explain buffer and
  // publish it to the explain ring in one call, and the batch records its
  // span and histogram samples — still without touching the heap.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  const ir::TargetRegion& kernel = gemm.kernels()[0];
  obs::TraceSession session;
  TargetRuntime runtime = makeGemmRuntime(kernel, &session);
  constexpr std::size_t kRows = 64;
  ASSERT_EQ(RuntimeOptions{}.decisionCacheCapacity, kRows);
  std::vector<symbolic::Bindings> bindings;
  for (std::size_t i = 0; i < 2 * kRows; ++i) {
    bindings.push_back(gemm.bindings(64 + 4 * static_cast<std::int64_t>(i)));
  }
  std::vector<DecideRequest> warm(kRows);
  std::vector<DecideRequest> fresh(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    warm[i] = {kernel.name, &bindings[i]};
    fresh[i] = {kernel.name, &bindings[kRows + i]};
  }
  std::vector<Decision> out(kRows);
  runtime.decideBatch(warm, out);
  const std::uint64_t explained = session.explainRing().recorded();

  const std::uint64_t before = allocationCount();
  runtime.decideBatch(fresh, out);
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "traced full-miss decideBatch allocated " << (after - before)
      << " times";
  EXPECT_EQ(session.explainRing().recorded() - explained, kRows);
  const DecisionCache::Stats stats = runtime.decisionCacheStats(kernel.name);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, kRows);
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);
}

TEST(ScalarDecide, SteadyStateHitsDoNotAllocate) {
  // Scalar decide() on a compiled region is a one-row group on the
  // thread-local arena: once the keys are cached and the arena is sized,
  // every call is a cache hit that touches no heap.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  TargetRuntime runtime = makeGemmRuntime(gemm.kernels()[0]);
  const std::string& region = gemm.kernels()[0].name;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : {96, 128, 192, 256}) {
    bindings.push_back(gemm.bindings(n));
  }
  for (const symbolic::Bindings& b : bindings) (void)runtime.decide(region, b);
  const DecisionCache::Stats warm = runtime.decisionCacheStats(region);
  bool allValid = true;
  const std::uint64_t before = allocationCount();
  for (int pass = 0; pass < 4; ++pass) {
    for (const symbolic::Bindings& b : bindings) {
      allValid = runtime.decide(region, b).valid && allValid;
    }
  }
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state scalar decide allocated " << (after - before)
      << " times";
  EXPECT_TRUE(allValid);
  const DecisionCache::Stats stats = runtime.decisionCacheStats(region);
  EXPECT_EQ(stats.hits - warm.hits, 4 * bindings.size());
  EXPECT_EQ(stats.misses, warm.misses);
}

TEST(ScalarDecide, FullCacheEvictingMissesDoNotAllocate) {
  // The region's cache is filled to capacity; each later decide() of a
  // size it has never seen misses, evaluates the models and evicts the
  // least-recently-used entry, reusing its storage — no heap traffic.
  const polybench::Benchmark& gemm = polybench::benchmarkByName("GEMM");
  TargetRuntime runtime = makeGemmRuntime(gemm.kernels()[0]);
  const std::string& region = gemm.kernels()[0].name;
  const std::size_t capacity = RuntimeOptions{}.decisionCacheCapacity;
  constexpr std::size_t kFresh = 64;
  std::vector<symbolic::Bindings> bindings;
  for (std::size_t i = 0; i < capacity + kFresh; ++i) {
    bindings.push_back(gemm.bindings(64 + 4 * static_cast<std::int64_t>(i)));
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    (void)runtime.decide(region, bindings[i]);
  }
  ASSERT_EQ(runtime.decisionCacheStats(region).insertions, capacity);
  ASSERT_EQ(runtime.decisionCacheStats(region).evictions, 0u);

  bool allValid = true;
  const std::uint64_t before = allocationCount();
  for (std::size_t i = capacity; i < capacity + kFresh; ++i) {
    allValid = runtime.decide(region, bindings[i]).valid && allValid;
  }
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "evicting scalar decide allocated " << (after - before) << " times";
  EXPECT_TRUE(allValid);
  const DecisionCache::Stats stats = runtime.decisionCacheStats(region);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, kFresh);
  EXPECT_EQ(stats.insertions, capacity + kFresh);
}


/// The i-th extra runtime symbol of the widened GEMM entry below.
std::string extraSymbol(std::size_t i) {
  return std::string("s").append(std::to_string(i));
}

/// GEMM's PAD entry widened to CompiledRegionPlan::kMaxSlots + 1 runtime
/// symbols: the trip count gains a term per extra symbol.
pad::RegionAttributes wideGemmAttributes(const std::string& name) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  pad::RegionAttributes attr = compiler::analyzeRegion(
      polybench::benchmarkByName("GEMM").kernels()[0], models);
  attr.regionName = name;
  for (std::size_t i = 0; i < CompiledRegionPlan::kMaxSlots; ++i) {
    attr.flatTripCount += symbolic::Expr::symbol(extraSymbol(i));
  }
  return attr;
}

TEST(SlotLimit, MoreThanMaxSlotsSymbolsDegradesToSafeDefault) {
  // One symbol past the slot capacity: no plan can bind the region, so
  // every decide path degrades to the safe default with a diagnostic that
  // names the limit — even though every symbol is bound.
  const std::string registered = "wide_registered";
  const std::string unregistered = "wide_unregistered";
  pad::AttributeDatabase db;
  db.insert(wideGemmAttributes(registered));
  db.insert(wideGemmAttributes(unregistered));
  RuntimeOptions options;
  options.selector.safeDefaultDevice = Device::Gpu;  // non-default: proves use
  TargetRuntime runtime(db, options);
  ir::TargetRegion kernel = polybench::benchmarkByName("GEMM").kernels()[0];
  kernel.name = registered;
  runtime.registerRegion(kernel);

  symbolic::Bindings bindings{{"n", 256}};
  for (std::size_t i = 0; i < CompiledRegionPlan::kMaxSlots; ++i) {
    bindings[extraSymbol(i)] = 1;
  }
  ASSERT_EQ(bindings.size(), CompiledRegionPlan::kMaxSlots + 1);
  const auto expectLimitDegraded = [&](const Decision& decision) {
    EXPECT_FALSE(decision.valid);
    EXPECT_EQ(decision.device, Device::Gpu);
    EXPECT_NE(decision.diagnostic.find("more than 64 distinct runtime symbols"),
              std::string::npos)
        << decision.diagnostic;
  };

  const CompiledRegionPlan* plan = runtime.plan(registered);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->fastPathUsable());
  expectLimitDegraded(runtime.selector().decide(*plan, bindings));
  for (const std::string& name : {registered, unregistered}) {
    SCOPED_TRACE(name);
    expectLimitDegraded(runtime.decide(name, bindings));
    const std::vector<DecideRequest> requests{{name, &bindings},
                                              {name, &bindings}};
    std::vector<Decision> out(requests.size());
    runtime.decideBatch(requests, out);
    for (const Decision& decision : out) expectLimitDegraded(decision);
  }
}

TEST(UnregisteredRegion, DecidesThroughAGroupPlanLikeTheOracle) {
  // Every Polybench region has a PAD entry but none is registered: decide()
  // and decideBatch() compile a plan per region group, must match the
  // interpreted oracle bit for bit (unbound symbols included), and count as
  // compiled decisions with no cache involved.
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  obs::TraceSession session;
  RuntimeOptions options;
  options.trace = &session;
  TargetRuntime runtime(compiler::compileAll(regions, models), options);

  std::vector<symbolic::Bindings> bindings;
  std::vector<std::string> names;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const std::int64_t n : {3, 100, 1100}) {
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        names.push_back(kernel.name);
        bindings.push_back(benchmark.bindings(n));
      }
    }
    names.push_back(benchmark.kernels()[0].name);
    bindings.emplace_back();  // every required symbol unbound
  }
  std::vector<DecideRequest> requests(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    requests[i] = {names[i], &bindings[i]};
  }
  std::vector<Decision> batched(requests.size());
  runtime.decideBatch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i) + " region '" + names[i] + "'");
    EXPECT_FALSE(runtime.hasRegion(names[i]));
    const Decision expected = oracle::decide(
        runtime.selector(), runtime.database().at(names[i]), bindings[i]);
    expectIdenticalDecisions(runtime.decide(names[i], bindings[i]), expected);
    expectIdenticalDecisions(batched[i], expected);
  }
  obs::MetricsRegistry& metrics = session.metrics();
  EXPECT_EQ(metrics.counter("decision.compiled").value(), 2 * names.size());
  EXPECT_EQ(metrics.counter("decision.cache_hit").value(), 0u);
  EXPECT_EQ(metrics.counter("decision.degenerate").value(), 0u);
}

}  // namespace
}  // namespace osel::runtime
