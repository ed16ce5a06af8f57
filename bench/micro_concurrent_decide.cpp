// Open-loop concurrency bench for the decide hot path — the numbers a
// multi-caller selector service (`oseld`, see ROADMAP) will be judged
// against. Each worker thread hammers TargetRuntime::decide and records
// per-call latency; the report shows decisions/sec plus p50/p99/p999 per
// thread count, so a global-lock collapse (throughput flat or falling with
// threads while tail latency explodes) is immediately visible.
//
// Options:
//   --threads-max T    highest thread count swept (default 64; the sweep is
//                      1,2,4,... up to T)
//   --per-thread N     decide calls per thread per run (default 20000)
//   --regions R        distinct regions decided over (default 8, spreading
//                      load across the per-region decision caches; every
//                      region shares the one registry lock; 1 = worst-case
//                      single cache stripe)
//   --rate HZ          open-loop arrival pacing per thread (0 = closed loop,
//                      the default): each call is scheduled at start +
//                      i/rate and latency is measured from the *scheduled*
//                      time, so queueing delay counts (coordinated omission
//                      stays visible)
//   --workload W       draw (region, bindings) pairs from a workload::
//                      generator (uniform | zipfian | bursty) instead of
//                      round-robin over the regions with one fixed size;
//                      per-thread streams are seeded --workload-seed + the
//                      thread index, so runs are deterministic. Bursty idle
//                      gaps are slept in closed-loop mode (latency is
//                      measured from after the gap) and ignored when --rate
//                      paces arrivals
//   --batch N          issue decisions through decideBatch in groups of N
//                      (default 1 = scalar decide); each latency sample is
//                      then one batch, and decisions/sec counts N decisions
//                      per call
//   --workload-seed S  base seed for --workload streams (default 2019)
//   --policy P         selection policy: model-compare (default) |
//                      calibrated (docs/POLICIES.md). Every decide after a
//                      region's first at a size is a cache hit, so the
//                      policy's choose() runs once per (region, size) and
//                      the numbers are the cache-hit path's for either
//                      policy
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/policy_flag.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "obs/quantile.h"
#include "runtime/target_runtime.h"
#include "support/cli.h"
#include "workload/workload.h"

namespace {

using namespace osel;
using Clock = std::chrono::steady_clock;

ir::TargetRegion makeKernel(const std::string& name) {
  using namespace osel::ir;
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

runtime::TargetRuntime makeRuntime(const std::vector<std::string>& names,
                                   runtime::RuntimeOptions options = {}) {
  std::vector<ir::TargetRegion> regions;
  regions.reserve(names.size());
  for (const std::string& name : names) regions.push_back(makeKernel(name));
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  options.selector.cpuThreads = 160;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  runtime::TargetRuntime rt(compiler::compileAll(regions, models), options);
  for (ir::TargetRegion& region : regions) rt.registerRegion(std::move(region));
  return rt;
}

struct SweepResult {
  int threads = 0;
  double decisionsPerSec = 0.0;
  double p50Us = 0.0;
  double p99Us = 0.0;
  double p999Us = 0.0;
};

/// Extra traffic shaping: when `shape` is set, each worker draws its
/// (region, bindings) stream from a deterministic workload generator; when
/// `batch > 1`, arrivals go through decideBatch in groups.
struct TrafficOptions {
  std::optional<workload::Shape> shape;
  std::uint64_t seed = 2019;
  std::size_t batch = 1;
};

std::vector<workload::Candidate> makeCandidates(
    const std::vector<std::string>& names) {
  // A few recurring sizes per region keeps the steady state cache-hit
  // dominated, like the fixed n=96 of the round-robin path.
  std::vector<symbolic::Bindings> choices;
  for (const std::int64_t n : {64, 96, 128, 160}) {
    choices.push_back(symbolic::Bindings{{"n", n}});
  }
  std::vector<workload::Candidate> candidates;
  candidates.reserve(names.size());
  for (const std::string& name : names) candidates.push_back({name, choices});
  return candidates;
}

SweepResult runSweep(runtime::TargetRuntime& rt,
                     const std::vector<std::string>& names, int threads,
                     int perThread, double rateHz,
                     const TrafficOptions& traffic) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const std::size_t batch = traffic.batch;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double>& mine = latencies[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(perThread));
      const symbolic::Bindings bindings{{"n", 96}};
      std::optional<workload::Generator> generator;
      if (traffic.shape.has_value()) {
        workload::GeneratorOptions genOptions;
        genOptions.seed = traffic.seed + static_cast<std::uint64_t>(t);
        generator.emplace(*traffic.shape, makeCandidates(names), genOptions);
      }
      std::vector<workload::Item> items(batch);
      std::vector<runtime::DecideRequest> requests(batch);
      std::vector<runtime::Decision> out(batch);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < perThread; ++i) {
        // Fill this arrival's requests before taking the timestamp so
        // generator drawing doesn't count as decide latency.
        double gapSeconds = 0.0;
        for (std::size_t j = 0; j < batch; ++j) {
          if (generator.has_value()) {
            generator->next(items[j]);
            gapSeconds += items[j].gapSeconds;
            requests[j] = {items[j].region, &items[j].bindings};
          } else {
            requests[j] = {
                names[(static_cast<std::size_t>(t + i) + j) % names.size()],
                &bindings};
          }
        }
        Clock::time_point scheduled = start;
        if (rateHz > 0.0) {
          // Open loop: arrival i is due at start + i/rate regardless of how
          // long earlier calls took; latency measured from the due time
          // includes queueing delay.
          scheduled += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(static_cast<double>(i) / rateHz));
          std::this_thread::sleep_until(scheduled);
        } else {
          if (gapSeconds > 0.0) {
            // Bursty idle gap: the closed loop honors the generator's
            // pacing; latency is measured from after the sleep.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(gapSeconds));
          }
          scheduled = Clock::now();
        }
        if (batch == 1 && !generator.has_value()) {
          (void)rt.decide(
              names[static_cast<std::size_t>(t + i) % names.size()], bindings);
        } else {
          rt.decideBatch(std::span<const runtime::DecideRequest>(requests),
                         std::span<runtime::Decision>(out));
        }
        mine.push_back(
            std::chrono::duration<double>(Clock::now() - scheduled).count());
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const Clock::time_point wallStart = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const double wallSeconds =
      std::chrono::duration<double>(Clock::now() - wallStart).count();

  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(threads) *
              static_cast<std::size_t>(perThread));
  for (std::vector<double>& perThreadLatencies : latencies) {
    all.insert(all.end(), perThreadLatencies.begin(),
               perThreadLatencies.end());
  }
  std::sort(all.begin(), all.end());
  SweepResult result;
  result.threads = threads;
  result.decisionsPerSec =
      wallSeconds > 0.0
          ? static_cast<double>(all.size() * batch) / wallSeconds
          : 0.0;
  result.p50Us = obs::percentileOfSorted(all, 0.50) * 1e6;
  result.p99Us = obs::percentileOfSorted(all, 0.99) * 1e6;
  result.p999Us = obs::percentileOfSorted(all, 0.999) * 1e6;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const support::CommandLine cl = support::CommandLine::parse(argc, argv);
  const int threadsMax =
      static_cast<int>(cl.intOption("threads-max", 64));
  const int perThread = static_cast<int>(cl.intOption("per-thread", 20000));
  const int regionCount = static_cast<int>(cl.intOption("regions", 8));
  const double rateHz = cl.doubleOption("rate", 0.0);
  const auto batch = static_cast<std::size_t>(cl.intOption("batch", 1));
  if (threadsMax < 1 || perThread < 1 || regionCount < 1 || batch < 1) {
    std::fprintf(stderr,
                 "micro_concurrent_decide: --threads-max, --per-thread, "
                 "--regions and --batch must be >= 1\n");
    return 2;
  }
  TrafficOptions traffic;
  traffic.batch = batch;
  traffic.seed = static_cast<std::uint64_t>(cl.intOption("workload-seed", 2019));
  const std::string workloadName = cl.stringOption("workload").value_or("");
  if (!workloadName.empty()) {
    traffic.shape = workload::parseShape(workloadName);  // throws on unknown
  }
  // Decide-only bench: only selection-policy names are meaningful here.
  const auto policySelection =
      bench::parsePolicyFlag(cl, "micro_concurrent_decide", false);
  if (!policySelection.has_value()) return 2;

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(regionCount));
  for (int i = 0; i < regionCount; ++i) {
    names.push_back("concurrent" + std::to_string(i));
  }
  runtime::RuntimeOptions rtOptions;
  rtOptions.selector.policy = policySelection->selection;
  runtime::TargetRuntime rt = makeRuntime(names, rtOptions);
  const std::string policyName(
      runtime::policy::toString(rt.selector().policy().kind()));

  std::printf(
      "# decide hot path, %s loop, %d region(s), %d calls/thread, "
      "workload=%s, batch=%zu, policy=%s\n",
      rateHz > 0.0 ? "open" : "closed", regionCount, perThread,
      workloadName.empty() ? "round-robin" : workloadName.c_str(), batch,
      policyName.c_str());
  std::printf("threads,decisions_per_sec,p50_us,p99_us,p999_us\n");
  for (int threads = 1; threads <= threadsMax; threads *= 2) {
    const SweepResult result =
        runSweep(rt, names, threads, perThread, rateHz, traffic);
    std::printf("%d,%.0f,%.3f,%.3f,%.3f\n", result.threads,
                result.decisionsPerSec, result.p50Us, result.p99Us,
                result.p999Us);
    std::fflush(stdout);
  }

  return 0;
}
