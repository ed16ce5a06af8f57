// DecisionCache unit coverage (hit/miss counters, LRU eviction, refresh,
// disabled capacity, clear, the capacity bound), a differential test
// against the linear-scan LRU reference, plus TargetRuntime integration:
// repeated launches memoize, re-registration and a selection-policy refit
// drop the memoized decisions, and the LaunchRecord/CSV telemetry reports
// the path.
#include "runtime/decision_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "runtime/policy/policy.h"
#include "runtime/target_runtime.h"
#include "support/check.h"

namespace osel::runtime {
namespace {

using namespace osel::ir;

Decision makeDecision(double cpuSeconds) {
  Decision decision;
  decision.device = Device::Gpu;
  decision.cpu.seconds = cpuSeconds;
  decision.gpu.totalSeconds = cpuSeconds / 2.0;
  return decision;
}

std::array<std::int64_t, 2> key(std::int64_t a, std::int64_t b) {
  return {a, b};
}

/// One-row findMany — the probe a scalar decide makes: true and `out`
/// filled on a hit, false and `out` untouched on a miss.
bool findOne(DecisionCache& cache, std::uint64_t mask,
             std::span<const std::int64_t> values, Decision& out,
             std::uint64_t epoch = 0) {
  const DecisionCache::KeyBlock block{values.data(), &mask, values.size(), 1};
  Decision* const target = &out;
  std::uint8_t hit = 0;
  return cache.findMany(block, &target, &hit, epoch) == 1 && hit == 1;
}

/// One-row insertMany — the back-fill a scalar decide makes on a miss.
void insertOne(DecisionCache& cache, std::uint64_t mask,
               std::span<const std::int64_t> values, const Decision& decision,
               std::uint64_t epoch = 0) {
  const DecisionCache::KeyBlock block{values.data(), &mask, values.size(), 1};
  const Decision* const source = &decision;
  const std::uint32_t row = 0;
  cache.insertMany(block, std::span<const std::uint32_t>(&row, 1), &source,
                   epoch);
}

TEST(DecisionCache, HitAndMissCounters) {
  DecisionCache cache(4);
  const auto k = key(9600, 3);
  Decision out;
  EXPECT_FALSE(findOne(cache, 0b11, k, out));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().lookups, 1u);
  insertOne(cache, 0b11, k, makeDecision(1.0));
  EXPECT_EQ(cache.stats().insertions, 1u);
  ASSERT_TRUE(findOne(cache, 0b11, k, out));
  EXPECT_DOUBLE_EQ(out.cpu.seconds, 1.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same values under a different bound mask is a different key.
  EXPECT_FALSE(findOne(cache, 0b01, k, out));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().lookups, 3u);
}

TEST(DecisionCache, LruEvictionAtCapacity) {
  DecisionCache cache(2);
  Decision out;
  insertOne(cache, 0b1, key(1, 0), makeDecision(1.0));
  insertOne(cache, 0b1, key(2, 0), makeDecision(2.0));
  ASSERT_TRUE(findOne(cache, 0b1, key(1, 0), out));  // refresh entry 1
  insertOne(cache, 0b1, key(3, 0), makeDecision(3.0));  // evicts entry 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(findOne(cache, 0b1, key(2, 0), out));
  EXPECT_TRUE(findOne(cache, 0b1, key(1, 0), out));
  EXPECT_TRUE(findOne(cache, 0b1, key(3, 0), out));
}

TEST(DecisionCache, InsertRefreshesExistingKey) {
  DecisionCache cache(2);
  Decision out;
  insertOne(cache, 0b1, key(7, 0), makeDecision(1.0));
  insertOne(cache, 0b1, key(7, 0), makeDecision(5.0));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(findOne(cache, 0b1, key(7, 0), out));
  EXPECT_DOUBLE_EQ(out.cpu.seconds, 5.0);
}

TEST(DecisionCache, CapacityZeroDisablesStorage) {
  DecisionCache cache(0);
  Decision out;
  insertOne(cache, 0b1, key(1, 0), makeDecision(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(findOne(cache, 0b1, key(1, 0), out));
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(DecisionCache, ClearDropsEntriesKeepsCounters) {
  DecisionCache cache(4);
  Decision out;
  insertOne(cache, 0b1, key(1, 0), makeDecision(1.0));
  ASSERT_TRUE(findOne(cache, 0b1, key(1, 0), out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(findOne(cache, 0b1, key(1, 0), out));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().lookups, 2u);
}

TEST(DecisionCache, EpochAdvanceDropsEntriesLazily) {
  DecisionCache cache(4);
  Decision out;
  insertOne(cache, 0b1, key(1, 0), makeDecision(1.0), /*epoch=*/0);
  ASSERT_TRUE(findOne(cache, 0b1, key(1, 0), out, /*epoch=*/0));
  // The first access under a newer epoch clears the stale entries.
  EXPECT_FALSE(findOne(cache, 0b1, key(1, 0), out, /*epoch=*/1));
  EXPECT_EQ(cache.size(), 0u);
  // Counters survive the epoch bump.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Inserting under the new epoch works normally.
  insertOne(cache, 0b1, key(1, 0), makeDecision(2.0), /*epoch=*/1);
  ASSERT_TRUE(findOne(cache, 0b1, key(1, 0), out, /*epoch=*/1));
  EXPECT_DOUBLE_EQ(out.cpu.seconds, 2.0);
}

TEST(DecisionCache, StaleEpochLeavesTheCacheAlone) {
  // A call that read its epoch before a refit another call already brought
  // to this cache: its probes miss without wiping the newer entries, and
  // its pre-refit decisions are not stored.
  DecisionCache cache(4);
  Decision out;
  insertOne(cache, 0b1, key(1, 0), makeDecision(1.0), /*epoch=*/3);
  EXPECT_FALSE(findOne(cache, 0b1, key(1, 0), out, /*epoch=*/2));
  EXPECT_EQ(cache.size(), 1u);
  insertOne(cache, 0b1, key(2, 0), makeDecision(2.0), /*epoch=*/2);
  insertOne(cache, 0b1, key(1, 0), makeDecision(5.0), /*epoch=*/0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  // The current epoch still sees its own entry, unrefreshed.
  ASSERT_TRUE(findOne(cache, 0b1, key(1, 0), out, /*epoch=*/3));
  EXPECT_DOUBLE_EQ(out.cpu.seconds, 1.0);
  EXPECT_FALSE(findOne(cache, 0b1, key(2, 0), out, /*epoch=*/3));
  // A stale probe still counts one lookup and one miss per row.
  const DecisionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

// Satellite regression: 8 threads hammer one cache; the atomic Stats must
// never lose or tear a count — after joining, hits + misses == lookups and
// the totals match the per-thread work exactly.
TEST(DecisionCache, ConcurrentStatsAreCoherent) {
  DecisionCache cache(8);
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      Decision out;
      for (int i = 0; i < kIterations; ++i) {
        // A handful of shared keys (cross-thread hits) plus per-thread keys
        // (misses + insertions + evictions under the small capacity).
        const auto shared = key(i % 4, 0);
        if (!findOne(cache, 0b1, shared, out)) {
          insertOne(cache, 0b1, shared, makeDecision(1.0));
        }
        const auto mine = key(100 + t, i % 16);
        if (!findOne(cache, 0b1, mine, out)) {
          insertOne(cache, 0b1, mine, makeDecision(2.0));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const DecisionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups,
            static_cast<std::uint64_t>(kThreads) * kIterations * 2);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(cache.size(), 8u);
}

TEST(DecisionCache, HashDistinguishesMasksAndValues) {
  const auto k = key(9600, 3);
  EXPECT_NE(DecisionCache::hashKey(0b11, k), DecisionCache::hashKey(0b01, k));
  EXPECT_NE(DecisionCache::hashKey(0b11, k),
            DecisionCache::hashKey(0b11, key(9601, 3)));
}

TEST(DecisionCache, RejectsCapacityIdsCannotAddress) {
  EXPECT_THROW(DecisionCache(DecisionCache::kMaxCapacity + 1),
               support::PreconditionError);
  // The bound itself is addressable; storage grows with the entries, so
  // constructing at the bound allocates nothing up front.
  const DecisionCache largest(DecisionCache::kMaxCapacity);
  EXPECT_EQ(largest.capacity(), DecisionCache::kMaxCapacity);
  EXPECT_EQ(largest.size(), 0u);
}

// --- Differential test against the linear-scan LRU --------------------------

/// The linear-scan LRU the cache used to be: exact recency by a use tick,
/// eviction of the minimum tick. The O(1) cache must be indistinguishable
/// from it through every public call.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool find(std::uint64_t mask, const std::vector<std::int64_t>& values,
            Decision& out, std::uint64_t epoch) {
    ++stats_.lookups;
    if (!syncEpoch(epoch)) {
      ++stats_.misses;
      return false;
    }
    if (Entry* entry = locate(mask, values)) {
      ++stats_.hits;
      entry->lastUse = ++tick_;
      out = entry->decision;
      return true;
    }
    ++stats_.misses;
    return false;
  }

  void insert(std::uint64_t mask, const std::vector<std::int64_t>& values,
              const Decision& decision, std::uint64_t epoch) {
    if (capacity_ == 0 || !syncEpoch(epoch)) return;
    if (Entry* existing = locate(mask, values)) {
      existing->decision = decision;
      existing->lastUse = ++tick_;
      return;
    }
    ++stats_.insertions;
    Entry entry{mask, values, decision, ++tick_};
    if (entries_.size() < capacity_) {
      entries_.push_back(std::move(entry));
      return;
    }
    *std::min_element(entries_.begin(), entries_.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.lastUse < b.lastUse;
                      }) = std::move(entry);
    ++stats_.evictions;
  }

  /// False for a call whose epoch is older than the entries'.
  bool syncEpoch(std::uint64_t epoch) {
    if (epoch < epoch_) return false;
    if (epoch > epoch_) entries_.clear();
    epoch_ = epoch;
    return true;
  }
  void clear() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const DecisionCache::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t mask;
    std::vector<std::int64_t> values;
    Decision decision;
    std::uint64_t lastUse;
  };
  Entry* locate(std::uint64_t mask, const std::vector<std::int64_t>& values) {
    for (Entry& entry : entries_) {
      if (entry.mask == mask && entry.values == values) return &entry;
    }
    return nullptr;
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t epoch_ = 0;
  DecisionCache::Stats stats_;
};

struct TestKey {
  std::uint64_t mask;
  std::vector<std::int64_t> values;
};

/// A key drawn from a space about twice the capacity, so sequences mix
/// hits, misses, refreshes and evictions. `slots` is the key length; the
/// same (mask, v) under another length is a different key.
TestKey drawKey(std::mt19937_64& rng, std::size_t capacity,
                std::size_t slots) {
  std::uniform_int_distribution<std::int64_t> value(
      0, static_cast<std::int64_t>(capacity) + 2);
  const std::int64_t v = value(rng);
  TestKey key{(rng() & 1) != 0 ? 0b11u : 0b01u, {}};
  for (std::size_t i = 0; i < slots; ++i) {
    key.values.push_back(v * static_cast<std::int64_t>(i + 1) - 3);
  }
  return key;
}

void expectSameDecision(const Decision& actual, const Decision& expected) {
  EXPECT_EQ(actual.device, expected.device);
  EXPECT_EQ(actual.cpu.seconds, expected.cpu.seconds);
  EXPECT_EQ(actual.gpu.totalSeconds, expected.gpu.totalSeconds);
}

void expectSameState(const DecisionCache& cache, const ReferenceLru& ref) {
  EXPECT_EQ(cache.size(), ref.size());
  const DecisionCache::Stats actual = cache.stats();
  const DecisionCache::Stats& expected = ref.stats();
  EXPECT_EQ(actual.lookups, expected.lookups);
  EXPECT_EQ(actual.hits, expected.hits);
  EXPECT_EQ(actual.misses, expected.misses);
  EXPECT_EQ(actual.evictions, expected.evictions);
  EXPECT_EQ(actual.insertions, expected.insertions);
}

/// One seeded sequence of one-row and multi-row findMany / insertMany
/// calls, epoch bumps and clears, applied to both caches with the results
/// compared after every step. About one call in eight passes a stale epoch,
/// as a call that read the epoch before a concurrent refit does.
void runDifferential(std::size_t capacity, std::uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
               std::to_string(seed));
  DecisionCache cache(capacity);
  ReferenceLru ref(capacity);
  std::mt19937_64 rng(seed);
  std::uint64_t latest = 0;  // the newest epoch a refit has produced
  double nextValue = 1.0;  // every inserted decision is distinguishable
  const Decision sentinel = makeDecision(-1.0);
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng() % 100;
    const std::size_t slots = 1 + rng() % 3;
    const std::uint64_t epoch =
        latest > 0 && rng() % 8 == 0 ? rng() % latest : latest;
    if (op < 30) {
      const TestKey key = drawKey(rng, capacity, slots);
      Decision actual = sentinel;
      Decision expected = sentinel;
      ASSERT_EQ(findOne(cache, key.mask, key.values, actual, epoch),
                ref.find(key.mask, key.values, expected, epoch));
      expectSameDecision(actual, expected);
    } else if (op < 60) {
      const TestKey key = drawKey(rng, capacity, slots);
      const Decision decision = makeDecision(nextValue++);
      insertOne(cache, key.mask, key.values, decision, epoch);
      ref.insert(key.mask, key.values, decision, epoch);
    } else if (op < 95) {
      // A column-major block of rows sharing one key length, duplicates
      // included; about half the calls are findMany, the rest insertMany
      // of a random subset of the rows. Some blocks span more than the 64
      // rows the bulk calls hash at a time.
      const std::size_t rows = rng() % 8 == 0 ? 60 + rng() % 80 : rng() % 9;
      std::vector<TestKey> keys;
      for (std::size_t r = 0; r < rows; ++r) {
        keys.push_back(!keys.empty() && rng() % 4 == 0
                           ? keys[rng() % keys.size()]
                           : drawKey(rng, capacity, slots));
      }
      std::vector<std::int64_t> columns(rows * slots);
      std::vector<std::uint64_t> masks(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        masks[r] = keys[r].mask;
        for (std::size_t s = 0; s < slots; ++s) {
          columns[s * rows + r] = keys[r].values[s];
        }
      }
      const DecisionCache::KeyBlock block{columns.data(), masks.data(), slots,
                                          rows};
      if (op < 78) {
        std::vector<Decision> actual(rows, sentinel);
        std::vector<Decision> expected(rows, sentinel);
        std::vector<Decision*> targets(rows);
        for (std::size_t r = 0; r < rows; ++r) targets[r] = &actual[r];
        std::vector<std::uint8_t> hit(rows, 7);
        const std::size_t found =
            cache.findMany(block, targets.data(), hit.data(), epoch);
        std::size_t expectedFound = 0;
        ref.syncEpoch(epoch);
        for (std::size_t r = 0; r < rows; ++r) {
          const bool expectedHit =
              ref.find(keys[r].mask, keys[r].values, expected[r], epoch);
          expectedFound += expectedHit ? 1 : 0;
          EXPECT_EQ(hit[r], expectedHit ? 1 : 0) << "row " << r;
          expectSameDecision(actual[r], expected[r]);
        }
        EXPECT_EQ(found, expectedFound);
      } else {
        std::vector<Decision> decisions;
        for (std::size_t r = 0; r < rows; ++r) {
          decisions.push_back(makeDecision(nextValue++));
        }
        std::vector<const Decision*> pointers(rows);
        for (std::size_t r = 0; r < rows; ++r) pointers[r] = &decisions[r];
        std::vector<std::uint32_t> subset;
        for (std::uint32_t r = 0; r < rows; ++r) {
          if (rng() % 3 != 0) subset.push_back(r);
        }
        std::shuffle(subset.begin(), subset.end(), rng);
        cache.insertMany(block, subset, pointers.data(), epoch);
        for (const std::uint32_t r : subset) {
          ref.insert(keys[r].mask, keys[r].values, decisions[r], epoch);
        }
      }
    } else if (op < 98) {
      ++latest;
    } else {
      cache.clear();
      ref.clear();
    }
    expectSameState(cache, ref);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DecisionCache, MatchesLinearScanLruOnRandomSequences) {
  for (const std::size_t capacity : {1, 2, 3, 64}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      runDifferential(capacity, seed);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- TargetRuntime integration ----------------------------------------------

TargetRegion streamKernel() {
  return RegionBuilder("stream")
      .param("n")
      .array("x", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

TargetRuntime makeRuntime(RuntimeOptions options = {}) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const std::array<TargetRegion, 1> regions{streamKernel()};
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  TargetRuntime runtime(std::move(db), options);
  runtime.registerRegion(streamKernel());
  return runtime;
}

TEST(TargetRuntimeDecisionCache, RepeatedLaunchHitsCache) {
  TargetRuntime runtime = makeRuntime();
  ASSERT_NE(runtime.plan("stream"), nullptr);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  const LaunchRecord first =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_TRUE(first.decisionCompiled);
  EXPECT_FALSE(first.decisionCacheHit);
  const LaunchRecord second =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_TRUE(second.decisionCompiled);
  EXPECT_TRUE(second.decisionCacheHit);
  // The memoized decision is the same decision.
  EXPECT_EQ(second.decision.device, first.decision.device);
  EXPECT_EQ(second.decision.cpu.seconds, first.decision.cpu.seconds);
  EXPECT_EQ(second.decision.gpu.totalSeconds, first.decision.gpu.totalSeconds);
  const DecisionCache::Stats stats = runtime.decisionCacheStats("stream");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Different bindings are a different key.
  const symbolic::Bindings other{{"n", 128}};
  ArrayStore otherStore = allocateArrays(streamKernel(), other);
  const LaunchRecord third =
      runtime.launch("stream", other, otherStore, Policy::ModelGuided);
  EXPECT_FALSE(third.decisionCacheHit);
}

TEST(TargetRuntimeDecisionCache, InvalidateDropsMemoizedDecisions) {
  // The cache epoch is the policy's refit count, so a refit of any region
  // (here one nobody decides, leaving stream's factors at 1.0) invalidates
  // every cached decision.
  policy::PolicyOptions calibrated;
  calibrated.kind = policy::PolicyKind::Calibrated;
  calibrated.calibrationMinSamples = 1;
  RuntimeOptions options;
  options.selector.policy = policy::makePolicy(calibrated);
  TargetRuntime runtime = makeRuntime(options);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_EQ(runtime.decisionCacheStats("stream").hits, 1u);
  ASSERT_TRUE(runtime.selector().policy().observe(
      {"unlaunched", Device::Gpu, 1.0, 1.0, /*alarmRaised=*/true}));
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_FALSE(record.decisionCacheHit);
  // Counters survive invalidation.
  EXPECT_EQ(runtime.decisionCacheStats("stream").misses, 2u);
}

TEST(TargetRuntimeDecisionCache, ReRegistrationReplacesPlanAndCache) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_EQ(runtime.decisionCacheStats("stream").hits, 1u);
  runtime.registerRegion(streamKernel());
  EXPECT_EQ(runtime.decisionCacheStats("stream").hits, 0u);
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_FALSE(record.decisionCacheHit);
}

TEST(TargetRuntimeDecisionCache, DisabledCacheNeverHits) {
  RuntimeOptions options;
  options.decisionCacheCapacity = 0;
  TargetRuntime runtime = makeRuntime(options);
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  const LaunchRecord record =
      runtime.launch("stream", bindings, store, Policy::ModelGuided);
  EXPECT_TRUE(record.decisionCompiled);
  EXPECT_FALSE(record.decisionCacheHit);
  EXPECT_EQ(runtime.decisionCacheStats("stream").hits, 0u);
}

TEST(TargetRuntimeDecisionCache, RejectsUnaddressableCacheCapacity) {
  RuntimeOptions options;
  options.decisionCacheCapacity = DecisionCache::kMaxCapacity + 1;
  EXPECT_THROW((void)makeRuntime(options), support::PreconditionError);
}

TEST(TargetRuntimeDecisionCache, CsvReportsDecisionPathColumns) {
  TargetRuntime runtime = makeRuntime();
  const symbolic::Bindings bindings{{"n", 96}};
  ArrayStore store = allocateArrays(streamKernel(), bindings);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  (void)runtime.launch("stream", bindings, store, Policy::ModelGuided);
  const std::string csv = renderLogCsv(runtime.log());
  EXPECT_NE(csv.find("decision_path,decision_cache"), std::string::npos);
  EXPECT_NE(csv.find(",compiled,miss"), std::string::npos);
  EXPECT_NE(csv.find(",compiled,hit"), std::string::npos);
}

}  // namespace
}  // namespace osel::runtime
