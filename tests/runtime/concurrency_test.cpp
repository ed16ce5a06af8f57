// Concurrency stress coverage for the runtime, whose registry is one map
// behind one short lock (run under the tsan preset: `ctest --preset tsan`):
// registration storms, decide storms, mixed register+decide traffic, traced
// column/batch storms against explain-ring readers, in-place column decides
// against a serial run, and fault injection under concurrent launches.
// Thread counts stay modest — the point is interleaving coverage under TSan, not load.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/interpreter.h"
#include "obs/trace.h"
#include "runtime/policy/policy.h"
#include "runtime/target_runtime.h"
#include "support/check.h"
#include "support/faultinject.h"

#include "batch_test_support.h"

namespace osel::runtime {
namespace {

using namespace osel::ir;
using support::FaultKind;
using support::faultInjector;
namespace faultpoints = support::faultpoints;

constexpr int kThreads = 4;

TargetRegion makeKernel(const std::string& name) {
  return RegionBuilder(name)
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

/// Compiles `names` into one PAD and registers every kernel.
TargetRuntime makeRuntime(const std::vector<std::string>& names,
                          RuntimeOptions options = {}) {
  std::vector<TargetRegion> regions;
  regions.reserve(names.size());
  for (const std::string& name : names) regions.push_back(makeKernel(name));
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  TargetRuntime runtime(compiler::compileAll(regions, models), options);
  for (TargetRegion& region : regions) runtime.registerRegion(std::move(region));
  return runtime;
}

/// Options whose selection policy is `calibrated` refitting on every
/// alarmed sample, so a test can bump the cache epoch (the policy's
/// refits()) through refit().
RuntimeOptions refittingOptions() {
  policy::PolicyOptions calibrated;
  calibrated.kind = policy::PolicyKind::Calibrated;
  calibrated.calibrationMinSamples = 1;
  RuntimeOptions options;
  options.selector.policy = policy::makePolicy(calibrated);
  return options;
}

/// One refit of `region` at ratio 1.0: its factors stay 1.0, so decisions
/// are unchanged, but every cached decision goes stale.
void refit(TargetRuntime& runtime, std::string_view region) {
  EXPECT_TRUE(runtime.selector().policy().observe(
      {region, Device::Gpu, 1.0, 1.0, /*alarmRaised=*/true}));
}

void runThreads(int count, const std::function<void(int)>& body) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) workers.emplace_back(body, t);
  for (std::thread& worker : workers) worker.join();
}

// --- Decide storm -----------------------------------------------------------

TEST(RuntimeConcurrency, DecideStormOverSharedRegion) {
  TargetRuntime runtime = makeRuntime({"storm"});
  constexpr int kIterations = 300;
  std::atomic<int> invalid{0};
  runThreads(kThreads, [&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      // A few distinct sizes so the storm mixes cache hits and misses.
      const symbolic::Bindings bindings{{"n", 64 + 32 * ((t + i) % 3)}};
      const Decision decision = runtime.decide("storm", bindings);
      if (!decision.valid) invalid.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(invalid.load(), 0);
  const DecisionCache::Stats stats = runtime.decisionCacheStats("storm");
  EXPECT_EQ(stats.lookups,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  // At most one miss per distinct key per racing thread; virtually all
  // traffic hits.
  EXPECT_GT(stats.hits, stats.lookups / 2);
}

TEST(RuntimeConcurrency, DecideStormAcrossShards) {
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("region" + std::to_string(i));
  TargetRuntime runtime = makeRuntime(names);
  constexpr int kIterations = 200;
  runThreads(kThreads, [&](int t) {
    const symbolic::Bindings bindings{{"n", 96}};
    for (int i = 0; i < kIterations; ++i) {
      const Decision decision =
          runtime.decide(names[(t + i) % names.size()], bindings);
      ASSERT_TRUE(decision.valid);
    }
  });
}

// --- Registration storm -----------------------------------------------------

TEST(RuntimeConcurrency, RegistrationStorm) {
  // Pre-compile a PAD holding every name, then register all regions from
  // racing threads (distinct names and same-name re-registrations).
  std::vector<std::string> names;
  for (int i = 0; i < 2 * kThreads; ++i) {
    names.push_back("reg" + std::to_string(i));
  }
  std::vector<TargetRegion> regions;
  for (const std::string& name : names) regions.push_back(makeKernel(name));
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  // PAD holds every name up front; no region is registered yet.
  TargetRuntime runtime(compiler::compileAll(regions, models), options);
  runThreads(kThreads, [&](int t) {
    for (int round = 0; round < 20; ++round) {
      // Two names per thread plus one shared name everyone re-registers.
      runtime.registerRegion(makeKernel(names[2 * t]));
      runtime.registerRegion(makeKernel(names[2 * t + 1]));
      runtime.registerRegion(makeKernel(names[0]));
    }
  });
  for (const std::string& name : names) {
    EXPECT_TRUE(runtime.hasRegion(name)) << name;
    EXPECT_NE(runtime.plan(name), nullptr) << name;
  }
}

// --- Mixed register + decide ------------------------------------------------

TEST(RuntimeConcurrency, MixedRegisterAndDecideStorm) {
  TargetRuntime runtime = makeRuntime({"mixed"});
  const symbolic::Bindings bindings{{"n", 96}};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Continuous re-registration: each swaps in a fresh entry, plan, and
    // cache under the readers.
    for (int i = 0; i < 60; ++i) runtime.registerRegion(makeKernel("mixed"));
    stop.store(true, std::memory_order_release);
  });
  runThreads(kThreads, [&](int) {
    while (!stop.load(std::memory_order_acquire)) {
      const Decision decision = runtime.decide("mixed", bindings);
      ASSERT_TRUE(decision.valid);
    }
    // A few more decides after the writer quits: the final entry serves.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(runtime.decide("mixed", bindings).valid);
    }
  });
  writer.join();
  EXPECT_NE(runtime.plan("mixed"), nullptr);
}

TEST(RuntimeConcurrency, InvalidateRacesDecides) {
  TargetRuntime runtime = makeRuntime({"epoch"}, refittingOptions());
  const symbolic::Bindings bindings{{"n", 96}};
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    // Refits race the deciders' choose() reads of the same region's state.
    for (int i = 0; i < 200; ++i) refit(runtime, "epoch");
    stop.store(true, std::memory_order_release);
  });
  runThreads(kThreads, [&](int) {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(runtime.decide("epoch", bindings).valid);
    }
  });
  invalidator.join();
  const DecisionCache::Stats stats = runtime.decisionCacheStats("epoch");
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(RuntimeConcurrency, BatchDecideRacesRegistrationAndInvalidation) {
  // The batch fast path under the full churn mix: worker threads issue
  // decideBatch over two regions and three sizes (hit/miss interleavings)
  // while one thread re-registers a region (registry swaps drop the plan
  // the batch may be holding) and another refits the selection policy
  // (cache-epoch bumps race the bulk insertMany). Everything must stay
  // valid, and the bulk cache API must keep the stats invariant.
  TargetRuntime runtime =
      makeRuntime({"batcha", "batchb"}, refittingOptions());
  constexpr std::size_t kBatch = 16;
  std::atomic<bool> stop{false};
  std::thread registrar([&] {
    for (int i = 0; i < 60; ++i) runtime.registerRegion(makeKernel("batcha"));
  });
  std::thread invalidator([&] {
    for (int i = 0; i < 200; ++i) refit(runtime, i % 2 ? "batchb" : "batcha");
    stop.store(true, std::memory_order_release);
  });
  runThreads(kThreads, [&](int t) {
    const std::array<std::string, 2> names{"batcha", "batchb"};
    std::array<symbolic::Bindings, 3> sizes;
    for (int s = 0; s < 3; ++s) {
      sizes[static_cast<std::size_t>(s)] =
          symbolic::Bindings{{"n", 64 + 32 * s}};
    }
    std::array<DecideRequest, kBatch> requests;
    std::array<Decision, kBatch> out;
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t pick = static_cast<std::size_t>(t + round) + j;
        requests[j] = {names[pick % names.size()],
                       &sizes[pick % sizes.size()]};
      }
      runtime.decideBatch(requests, out);
      for (const Decision& decision : out) ASSERT_TRUE(decision.valid);
      ++round;
    }
  });
  registrar.join();
  invalidator.join();
  for (const char* name : {"batcha", "batchb"}) {
    const DecisionCache::Stats stats = runtime.decisionCacheStats(name);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups) << name;
  }
}

TEST(RuntimeConcurrency, TracedColumnsAndBatchStormRecordEveryFreshExplain) {
  // oseld's shape under contention, next to in-process callers: four
  // workers decide traced region groups on one runtime — half through
  // decideColumns (wire columns, every row fresh), half through decideBatch
  // (per-row maps, memoized over more sizes than a region's cache holds, so
  // its hits, misses and evictions interleave) — while a reader snapshots
  // the explain ring and looks up per-region records. Each group publishes
  // its fresh decisions' records in one call: the ring must count exactly
  // one record per fresh decision and every snapshot must be a gap-free seq
  // run.
  obs::TraceSession session;
  RuntimeOptions options;
  options.trace = &session;
  TargetRuntime runtime = makeRuntime({"colsa", "colsb"}, options);
  const std::array<std::string, 2> names{"colsa", "colsb"};
  constexpr int kRounds = 120;
  constexpr std::size_t kRows = 16;
  std::atomic<bool> done{false};
  std::atomic<int> gaps{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<obs::DecisionExplain> records =
          session.explainRing().snapshot();
      for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i].seq != records[i - 1].seq + 1) gaps.fetch_add(1);
      }
      obs::DecisionExplain latest;
      const std::string_view region = names[records.size() % 2];
      (void)session.explainRing().findNewest(
          [&](const obs::DecisionExplain& r) {
            return r.regionView() == region;
          },
          latest);
    }
  });
  std::atomic<int> invalid{0};
  runThreads(kThreads, [&](int t) {
    const std::array<std::string_view, 1> slot{"n"};
    std::array<std::int64_t, kRows> values{};
    std::array<symbolic::Bindings, kRows> bindings;
    std::array<DecideRequest, kRows> requests;
    std::array<Decision, kRows> out;
    for (int round = 0; round < kRounds; ++round) {
      const std::string& region = names[static_cast<std::size_t>(round) % 2];
      for (std::size_t j = 0; j < kRows; ++j) {
        const int pick = (t * kRounds + round * 7 + static_cast<int>(j)) % 97;
        values[j] = 64 + 8 * static_cast<std::int64_t>(pick);
        bindings[j] = symbolic::Bindings{{"n", values[j]}};
        requests[j] = {region, &bindings[j]};
      }
      if (t % 2 == 0) {
        runtime.decideColumns(region, slot,
                              reinterpret_cast<const char*>(values.data()),
                              kRows, out);
      } else {
        runtime.decideBatch(requests, out);
      }
      for (const Decision& decision : out) {
        if (!decision.valid) invalid.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(invalid.load(), 0);
  EXPECT_EQ(gaps.load(), 0);
  obs::MetricsRegistry& metrics = session.metrics();
  const std::uint64_t fresh = metrics.counter("decision.compiled").value() +
                              metrics.counter("decision.degenerate").value();
  const std::uint64_t hits = metrics.counter("decision.cache_hit").value();
  EXPECT_EQ(fresh + hits,
            static_cast<std::uint64_t>(kThreads) * kRounds * kRows);
  EXPECT_GT(hits, 0u);
  // More fresh decisions than the ring holds: the drop count is exercised.
  ASSERT_GT(fresh, session.explainRing().capacity());
  EXPECT_EQ(session.explainRing().recorded(), fresh);
  EXPECT_EQ(session.explainRing().dropped(),
            fresh - session.explainRing().capacity());
}

TEST(RuntimeConcurrency, InPlaceColumnDecidesMatchASerialRun) {
  // Fresh rows are decided in place, straight into the caller's span. Four
  // workers decideColumns the same traced regions, each into its own span
  // reused across rounds, while the regions' plans are shared; every row
  // must equal the decision a serial run on an identically built runtime
  // made for the same key, every row is fresh (one explain record each)
  // and the regions' caches see no traffic.
  obs::TraceSession session;
  RuntimeOptions options;
  options.trace = &session;
  TargetRuntime runtime = makeRuntime({"placea", "placeb"}, options);
  TargetRuntime serial = makeRuntime({"placea", "placeb"});
  const std::array<std::string, 2> names{"placea", "placeb"};
  constexpr int kRounds = 60;
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kSizes = 97;  // more than a region's cache holds
  const auto size = [](std::size_t pick) {
    return 64 + 8 * static_cast<std::int64_t>(pick);
  };
  std::array<std::vector<Decision>, 2> reference;
  for (std::size_t g = 0; g < names.size(); ++g) {
    for (std::size_t pick = 0; pick < kSizes; ++pick) {
      reference[g].push_back(serial.decide(names[g], {{"n", size(pick)}}));
    }
  }
  runThreads(kThreads, [&](int t) {
    const std::array<std::string_view, 1> slot{"n"};
    std::array<std::int64_t, kRows> values{};
    std::array<std::size_t, kRows> picks{};
    std::vector<Decision> out(kRows);
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t g = static_cast<std::size_t>(round + t) % 2;
      for (std::size_t j = 0; j < kRows; ++j) {
        picks[j] =
            (static_cast<std::size_t>(t * kRounds + round) * 7 + j * 11) %
            kSizes;
        values[j] = size(picks[j]);
      }
      runtime.decideColumns(names[g], slot,
                            reinterpret_cast<const char*>(values.data()),
                            kRows, out);
      for (std::size_t j = 0; j < kRows; ++j) {
        batch_test::expectIdenticalDecisions(out[j], reference[g][picks[j]]);
        EXPECT_GT(out[j].overheadSeconds, 0.0);
      }
    }
  });
  for (const std::string& name : names) {
    const DecisionCache::Stats stats = runtime.decisionCacheStats(name);
    EXPECT_EQ(stats.lookups, 0u) << name;
    EXPECT_EQ(stats.insertions, 0u) << name;
  }
  const std::uint64_t rows = static_cast<std::uint64_t>(kThreads) * kRounds *
                             kRows;
  EXPECT_EQ(session.metrics().counter("decision.compiled").value(), rows);
  EXPECT_EQ(session.metrics().counter("decision.cache_hit").value(), 0u);
  EXPECT_EQ(session.explainRing().recorded(), rows);
}

// --- Fault injection under concurrency --------------------------------------

class ConcurrentFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { faultInjector().disarmAll(); }
};

TEST_F(ConcurrentFaultTest, BreakerUnderConcurrentFatalLaunches) {
  RuntimeOptions options;
  options.health.quarantineThreshold = 3;
  options.health.quarantineLaunches = 4;
  options.retry.maxAttempts = 1;
  TargetRuntime runtime = makeRuntime({"faulty"}, options);
  faultInjector().arm(faultpoints::kGpuLaunch,
                      {.kind = FaultKind::DeviceLost, .probability = 1.0});
  const symbolic::Bindings bindings{{"n", 64}};
  const TargetRegion kernel = makeKernel("faulty");
  constexpr int kLaunchesPerThread = 25;
  runThreads(kThreads, [&](int) {
    // Per-thread store: the simulators write into the arrays.
    ArrayStore store = allocateArrays(kernel, bindings);
    for (int i = 0; i < kLaunchesPerThread; ++i) {
      const LaunchRecord record =
          runtime.launch("faulty", bindings, store, Policy::AlwaysGpu);
      // Every GPU attempt faults fatally; the CPU fallback always lands.
      ASSERT_EQ(record.chosen, Device::Cpu);
      ASSERT_NE(record.fallbackReason, FallbackReason::None);
    }
  });
  const DeviceHealthTracker& health = runtime.gpuHealth();
  EXPECT_GT(health.quarantinesOpened(), 0);
  EXPECT_GT(health.totalFatals(), 0);
  // Fatals recorded = launches that actually probed the GPU (the rest were
  // blocked by the open breaker); together they cover every launch.
  const std::vector<LaunchRecord> log = runtime.logSnapshot();
  ASSERT_EQ(log.size(),
            static_cast<std::size_t>(kThreads) * kLaunchesPerThread);
  int quarantineBlocked = 0;
  for (const LaunchRecord& record : log) {
    if (record.fallbackReason == FallbackReason::Quarantined) {
      ++quarantineBlocked;
    }
  }
  EXPECT_EQ(quarantineBlocked + health.totalFatals(),
            static_cast<int>(log.size()));
}

}  // namespace
}  // namespace osel::runtime
