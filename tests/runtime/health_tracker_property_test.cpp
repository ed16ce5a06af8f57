// Property-style coverage for DeviceHealthTracker quarantine semantics:
// randomized seeded success/fatal/admit sequences checked against a plain
// reference model (breaker opens exactly at the threshold, re-probe
// consumes exactly one launch, quarantinesOpened monotone), plus the
// concurrent exactly-once-open and exactly-Q-blocked properties the atomic
// CAS design guarantees under racing callers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "runtime/launch_guard.h"

namespace osel::runtime {
namespace {

/// The obviously-correct single-threaded model of the breaker.
struct ReferenceTracker {
  explicit ReferenceTracker(HealthPolicy healthPolicy) : policy(healthPolicy) {}

  bool admitGpu() {
    if (remaining > 0) {
      remaining -= 1;
      return false;
    }
    return true;
  }
  void recordSuccess() { streak = 0; }
  bool recordFatal() {
    total += 1;
    streak += 1;
    if (streak >= policy.quarantineThreshold) {
      remaining = policy.quarantineLaunches;
      opened += 1;
      streak = 0;
      return true;
    }
    return false;
  }

  HealthPolicy policy;
  int streak = 0;
  int remaining = 0;
  int opened = 0;
  int total = 0;
};

TEST(HealthTrackerProperty, RandomSequencesMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    const HealthPolicy policy{
        .quarantineThreshold = static_cast<int>(1 + rng() % 5),
        .quarantineLaunches = static_cast<int>(1 + rng() % 6)};
    DeviceHealthTracker tracker(policy);
    ReferenceTracker reference(policy);
    int lastOpened = 0;
    for (int step = 0; step < 500; ++step) {
      switch (rng() % 3) {
        case 0: {
          const bool expected = reference.admitGpu();
          ASSERT_EQ(tracker.admitGpu(), expected)
              << "seed " << seed << " step " << step;
          break;
        }
        case 1:
          reference.recordSuccess();
          tracker.recordGpuSuccess();
          break;
        default: {
          const bool expected = reference.recordFatal();
          ASSERT_EQ(tracker.recordGpuFatal(), expected)
              << "seed " << seed << " step " << step;
          break;
        }
      }
      ASSERT_EQ(tracker.consecutiveFatals(), reference.streak);
      ASSERT_EQ(tracker.quarantineRemaining(), reference.remaining);
      ASSERT_EQ(tracker.quarantinesOpened(), reference.opened);
      ASSERT_EQ(tracker.totalFatals(), reference.total);
      // quarantinesOpened is monotone.
      ASSERT_GE(tracker.quarantinesOpened(), lastOpened);
      lastOpened = tracker.quarantinesOpened();
    }
  }
}

TEST(HealthTrackerProperty, BreakerOpensExactlyAtThreshold) {
  const HealthPolicy policy{.quarantineThreshold = 4,
                            .quarantineLaunches = 8};
  DeviceHealthTracker tracker(policy);
  for (int i = 1; i < policy.quarantineThreshold; ++i) {
    EXPECT_FALSE(tracker.recordGpuFatal()) << "fatal " << i;
    EXPECT_FALSE(tracker.quarantined());
  }
  EXPECT_TRUE(tracker.recordGpuFatal());  // the threshold-th fatal opens
  EXPECT_TRUE(tracker.quarantined());
  EXPECT_EQ(tracker.quarantinesOpened(), 1);
  EXPECT_EQ(tracker.consecutiveFatals(), 0);  // streak resets on open
}

TEST(HealthTrackerProperty, ReProbeConsumesExactlyOneLaunch) {
  const HealthPolicy policy{.quarantineThreshold = 1,
                            .quarantineLaunches = 3};
  DeviceHealthTracker tracker(policy);
  ASSERT_TRUE(tracker.recordGpuFatal());
  // Exactly quarantineLaunches admits are blocked, each consuming one.
  for (int i = 0; i < policy.quarantineLaunches; ++i) {
    EXPECT_FALSE(tracker.admitGpu()) << "blocked admit " << i;
    EXPECT_EQ(tracker.quarantineRemaining(),
              policy.quarantineLaunches - 1 - i);
  }
  // The next launch is the re-probe: admitted, breaker closed.
  EXPECT_TRUE(tracker.admitGpu());
  EXPECT_FALSE(tracker.quarantined());
}

TEST(HealthTrackerProperty, ConcurrentFatalsOpenExactlyOnce) {
  // threshold T with exactly T racing fatals and no successes: the streak
  // must pass through T exactly once, so exactly one caller gets `true`.
  constexpr int kThreads = 8;
  const HealthPolicy policy{.quarantineThreshold = kThreads,
                            .quarantineLaunches = 100};
  DeviceHealthTracker tracker(policy);
  std::atomic<int> opens{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      if (tracker.recordGpuFatal()) opens.fetch_add(1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(opens.load(), 1);
  EXPECT_EQ(tracker.quarantinesOpened(), 1);
  EXPECT_EQ(tracker.totalFatals(), kThreads);
}

TEST(HealthTrackerProperty, ConcurrentAdmitsConsumeExactlyQuarantine) {
  // Q quarantined launches, N > Q racing admits: exactly Q are blocked.
  const HealthPolicy policy{.quarantineThreshold = 1,
                            .quarantineLaunches = 5};
  DeviceHealthTracker tracker(policy);
  ASSERT_TRUE(tracker.recordGpuFatal());
  constexpr int kAdmits = 16;
  std::atomic<int> blocked{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kAdmits; ++t) {
    workers.emplace_back([&] {
      if (!tracker.admitGpu()) blocked.fetch_add(1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(blocked.load(), policy.quarantineLaunches);
  EXPECT_FALSE(tracker.quarantined());
}

TEST(HealthTrackerProperty, ManyRoundsOfFatalsOpenOncePerRound) {
  // K*N fatals with no successes ⇒ exactly N openings, however the calls
  // interleave across threads.
  constexpr int kThreshold = 4;
  constexpr int kRounds = 6;
  const HealthPolicy policy{.quarantineThreshold = kThreshold,
                            .quarantineLaunches = 1};
  DeviceHealthTracker tracker(policy);
  std::atomic<int> opens{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreshold; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (tracker.recordGpuFatal()) opens.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(opens.load(), kRounds);
  EXPECT_EQ(tracker.quarantinesOpened(), kRounds);
  EXPECT_EQ(tracker.totalFatals(), kThreshold * kRounds);
}

}  // namespace
}  // namespace osel::runtime
