// Micro-benchmarks for the paper's §IV.D claim: evaluating the analytical
// models at launch time is "equivalent to solving an equation" — negligible
// next to the work the OpenMP runtime already does to start parallel
// execution (and next to the ~8 us kernel-launch overhead, let alone the
// ML-inference alternative §V.B dismisses).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "mca/pipeline_sim.h"
#include "obs/trace.h"
#include "polybench/polybench.h"
#include "runtime/decision_cache.h"
#include "runtime/policy/policy.h"
#include "runtime/selector.h"
#include "runtime/target_runtime.h"
#include "service/client.h"
#include "service/server.h"

namespace {

using namespace osel;

const pad::RegionAttributes& gemmAttributes() {
  static const pad::RegionAttributes attr = [] {
    const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
    return compiler::analyzeRegion(
        polybench::benchmarkByName("GEMM").kernels()[0], models);
  }();
  return attr;
}

const runtime::OffloadSelector& selector() {
  static const runtime::OffloadSelector instance{runtime::SelectorConfig{}};
  return instance;
}

/// GEMM's model inputs under `bindings`, completed as one row of its
/// compiled plan — the workloads every decide evaluates.
std::pair<cpumodel::CpuWorkload, gpumodel::GpuWorkload> gemmWorkloads(
    const symbolic::Bindings& bindings) {
  const runtime::CompiledRegionPlan plan = selector().compile(gemmAttributes());
  std::array<std::int64_t, runtime::CompiledRegionPlan::kMaxSlots> slots{};
  std::uint64_t boundMask = 0;
  plan.bindSlotsColumn(bindings, slots.data(), 1, 0, boundMask);
  std::int64_t exprOut = 0;
  std::int64_t scratch = 0;
  std::pair<cpumodel::CpuWorkload, gpumodel::GpuWorkload> workloads;
  plan.completeWorkloadsColumns(slots.data(), &boundMask, 1, &exprOut,
                                &scratch, &workloads.first, &workloads.second);
  return workloads;
}

void BM_CompiledDecision(benchmark::State& state) {
  // The compiled path: slot-based expression evaluation over a stack
  // buffer; zero heap allocation, zero string hashing per call.
  const symbolic::Bindings bindings{{"n", 9600}};
  const runtime::CompiledRegionPlan plan = selector().compile(gemmAttributes());
  const runtime::RegionHandle region(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector().decide(region, bindings));
  }
}
BENCHMARK(BM_CompiledDecision);

void BM_PolicyChoice(benchmark::State& state) {
  // The selection-policy seam's cost on the compiled decide path: every
  // policy is one virtual choose() per decide. Arg 0 is model-compare, the
  // default — the perf-smoke entry runs it next to BM_CompiledDecision
  // (which uses the same default) so a per-decide allocation or lock on
  // the policy seam shows up as a gap between them. Arg 1 is calibrated,
  // which also takes its state mutex and looks up the region's correction
  // factors.
  const auto kind = static_cast<runtime::policy::PolicyKind>(state.range(0));
  runtime::SelectorConfig config;
  runtime::policy::PolicyOptions policyOptions;
  policyOptions.kind = kind;
  config.policy = runtime::policy::makePolicy(policyOptions);
  const runtime::OffloadSelector sel(config);
  const symbolic::Bindings bindings{{"n", 9600}};
  const runtime::CompiledRegionPlan plan = sel.compile(gemmAttributes());
  const runtime::RegionHandle region(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.decide(region, bindings));
  }
  state.SetLabel(std::string(runtime::policy::toString(config.policy->kind())));
}
BENCHMARK(BM_PolicyChoice)->Arg(0)->Arg(1);

void BM_TracedDecision(benchmark::State& state) {
  // The compiled path plus the runtime's full observability hook set: one
  // decision span, one histogram sample, AND one DecisionExplain forensics
  // record (model-term attribution filled by the selector's explain sink,
  // pushed into the session's ring) per decide. The delta against
  // BM_CompiledDecision is the per-decision cost of tracing; with no
  // session attached the hooks are a single branch (see the <2% pin in
  // perf-smoke and the allocation test in test_obs).
  const symbolic::Bindings bindings{{"n", 9600}};
  const runtime::CompiledRegionPlan plan = selector().compile(gemmAttributes());
  const runtime::RegionHandle region(plan);
  obs::TraceSession session({.capacity = 1024});
  obs::Histogram& overhead = session.metrics().histogram(
      "decision.overhead_s", {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2});
  obs::DecisionExplain explain;
  for (auto _ : state) {
    const std::int64_t start = session.nowNs();
    const runtime::Decision decision =
        selector().decide(region, bindings, &explain);
    session.recordSpan("decide", "compiled", "gemm_k1", start,
                       session.nowNs() - start,
                       {"overhead_s", decision.overheadSeconds},
                       {"valid", decision.valid ? 1.0 : 0.0});
    session.recordExplain(explain);
    overhead.record(decision.overheadSeconds);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_TracedDecision);

void BM_DecisionCacheHit(benchmark::State& state) {
  // Steady-state repeated launch: bind slots + memoization-cache lookup,
  // as the one-row region group a scalar decide runs.
  const symbolic::Bindings bindings{{"n", 9600}};
  const runtime::CompiledRegionPlan plan = selector().compile(gemmAttributes());
  runtime::DecisionCache cache(64);
  std::array<std::int64_t, runtime::CompiledRegionPlan::kMaxSlots> slots{};
  std::uint64_t boundMask = 0;
  const runtime::DecisionCache::KeyBlock key{slots.data(), &boundMask,
                                             plan.slotCount(), 1};
  plan.bindSlotsColumn(bindings, slots.data(), 1, 0, boundMask);
  const runtime::Decision decision =
      selector().decide(runtime::RegionHandle(plan), bindings);
  const runtime::Decision* const inserted[] = {&decision};
  const std::uint32_t row = 0;
  cache.insertMany(key, std::span<const std::uint32_t>(&row, 1), inserted);
  runtime::Decision out;
  runtime::Decision* const targets[] = {&out};
  std::uint8_t hit = 0;
  for (auto _ : state) {
    plan.bindSlotsColumn(bindings, slots.data(), 1, 0, boundMask);
    benchmark::DoNotOptimize(cache.findMany(key, targets, &hit));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DecisionCacheHit);

void BM_ConcurrentDecide(benchmark::State& state) {
  // The decide hot path under contention: every thread hammers
  // TargetRuntime::decide over the same region (worst case — the one
  // registry lock and one cache stripe). Scaling here is the ceiling a
  // multi-region service sees; see bench/micro_concurrent_decide for the
  // open-loop latency view.
  static runtime::TargetRuntime* sharedRuntime = nullptr;
  if (state.thread_index() == 0) {
    const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
    const ir::TargetRegion& kernel =
        polybench::benchmarkByName("GEMM").kernels()[0];
    const std::array<ir::TargetRegion, 1> regions{kernel};
    runtime::RuntimeOptions options;
    sharedRuntime = new runtime::TargetRuntime(
        compiler::compileAll(regions, models), options);
    sharedRuntime->registerRegion(kernel);
  }
  const symbolic::Bindings bindings{{"n", 9600}};
  const std::string name = polybench::benchmarkByName("GEMM").kernels()[0].name;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharedRuntime->decide(name, bindings));
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations() * state.threads());
    delete sharedRuntime;
    sharedRuntime = nullptr;
  }
}
BENCHMARK(BM_ConcurrentDecide)->ThreadRange(1, 8)->UseRealTime();

runtime::TargetRuntime makeGemmRuntime(runtime::RuntimeOptions options = {}) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const ir::TargetRegion& kernel =
      polybench::benchmarkByName("GEMM").kernels()[0];
  const std::array<ir::TargetRegion, 1> regions{kernel};
  runtime::TargetRuntime rt(compiler::compileAll(regions, models), options);
  rt.registerRegion(kernel);
  return rt;
}

/// Steady-state traffic both batch benches replay: one region, four
/// recurring sizes, so after warm-up every decision is a cache hit — the
/// shape an iterative suite presents.
constexpr std::array<std::int64_t, 4> kBatchSizesCycle{512, 1024, 2048, 9600};

void BM_LoopedDecide(benchmark::State& state) {
  // Baseline for BM_BatchDecide: the same traffic answered one scalar
  // decide() call at a time — each paying its own registry lookup, cache
  // lock, clock reads, and span. Arg is decisions per iteration, matching
  // the batch sizes so items/sec compares directly.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  runtime::TargetRuntime rt = makeGemmRuntime();
  const std::string name =
      polybench::benchmarkByName("GEMM").kernels()[0].name;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : kBatchSizesCycle) {
    bindings.push_back(symbolic::Bindings{{"n", n}});
  }
  for (const symbolic::Bindings& b : bindings) {
    benchmark::DoNotOptimize(rt.decide(name, b));  // warm the cache
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(rt.decide(name, bindings[i % bindings.size()]));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_LoopedDecide)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_BatchDecide(benchmark::State& state) {
  // The batched path over identical traffic: one snapshot acquire, one
  // bulk cache probe, SoA evaluation for misses. The acceptance bar is
  // >= 3x lower amortized per-decision cost at batch=64 vs BM_LoopedDecide
  // (guarded by guard_batch_decide in the perf-smoke label). The second
  // arg is the region cache capacity: batch 64 at 64 (every row hits) and
  // at 0 (every row fresh) is the cache's hit-heavy on/off pair.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  runtime::RuntimeOptions options;
  options.decisionCacheCapacity = static_cast<std::size_t>(state.range(1));
  runtime::TargetRuntime rt = makeGemmRuntime(options);
  const std::string name =
      polybench::benchmarkByName("GEMM").kernels()[0].name;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : kBatchSizesCycle) {
    bindings.push_back(symbolic::Bindings{{"n", n}});
  }
  std::vector<runtime::DecideRequest> requests(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    requests[i] = {name, &bindings[i % bindings.size()]};
  }
  std::vector<runtime::Decision> out(batch);
  rt.decideBatch(requests, out);  // warm the cache and the thread arena
  for (auto _ : state) {
    rt.decideBatch(requests, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchDecide)
    ->Args({1, 64})
    ->Args({8, 64})
    ->Args({64, 64})
    ->Args({512, 64})
    ->Args({64, 0});

/// GEMM runtime as oseld runs it — a trace session attached — with the
/// decision cache off, so every decided row is fresh and fills an explain
/// record. Shared by every thread of BM_BatchDecideTraced.
runtime::TargetRuntime& tracedMissRuntime() {
  static obs::TraceSession session;
  static runtime::TargetRuntime rt = [] {
    runtime::RuntimeOptions options;
    options.decisionCacheCapacity = 0;
    options.trace = &session;
    return makeGemmRuntime(options);
  }();
  return rt;
}

void BM_BatchDecideTraced(benchmark::State& state) {
  // oseld's decide stage per row, explain capture included: each thread
  // decides batches of fresh rows on one shared traced runtime. With two
  // threads the explain publishes of both workers contend for the ring.
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  runtime::TargetRuntime& rt = tracedMissRuntime();
  const std::string name =
      polybench::benchmarkByName("GEMM").kernels()[0].name;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : kBatchSizesCycle) {
    bindings.push_back(symbolic::Bindings{{"n", n}});
  }
  std::vector<runtime::DecideRequest> requests(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    requests[i] = {name, &bindings[i % bindings.size()]};
  }
  std::vector<runtime::Decision> out(batch);
  rt.decideBatch(requests, out);  // size this thread's arena
  for (auto _ : state) {
    rt.decideBatch(requests, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchDecideTraced)->Arg(64)->ThreadRange(1, 2)->UseRealTime();

/// Every suite region on one traced runtime, as oseld runs it, with
/// `capacity` entries per region cache. Shared by the threads of one
/// BM_ColdFrameDecide or BM_ColdBatchDecide run.
struct ColdSuite {
  explicit ColdSuite(std::size_t capacity = 64) {
    std::vector<ir::TargetRegion> regions;
    for (const polybench::Benchmark& benchmark : polybench::suite()) {
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        regions.push_back(kernel);
      }
    }
    const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
    runtime::RuntimeOptions options;
    options.decisionCacheCapacity = capacity;
    options.trace = &session;
    rt = std::make_unique<runtime::TargetRuntime>(
        compiler::compileAll(regions, models), options);
    for (const ir::TargetRegion& region : regions) rt->registerRegion(region);
  }
  obs::TraceSession session;
  std::unique_ptr<runtime::TargetRuntime> rt;
};

/// One pre-built 64-row frame: a region, its slot names, slot-major values,
/// and the same rows as per-row Bindings maps.
struct ColdFrame {
  std::string region;
  std::vector<std::string> names;
  std::vector<std::string_view> nameViews;
  std::vector<std::int64_t> values;
  std::vector<symbolic::Bindings> rows;
};

/// `count` frames over the suite: regions drawn zipfian (s = 1.2, suite
/// order is rank order), each row a size drawn from 4096 per region — the
/// serve_cold_batch shape, so a 64-entry region cache hits under 2% of rows.
std::vector<ColdFrame> coldFrames(std::size_t count, std::size_t rows,
                                  std::uint64_t seed) {
  struct Region {
    std::string name;
    const polybench::Benchmark* benchmark;
  };
  std::vector<Region> regions;
  std::vector<double> weights;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back({kernel.name, &benchmark});
      weights.push_back(
          1.0 / std::pow(static_cast<double>(regions.size()), 1.2));
    }
  }
  std::mt19937_64 rng(seed);
  std::discrete_distribution<std::size_t> pickRegion(weights.begin(),
                                                     weights.end());
  std::uniform_int_distribution<std::int64_t> pickSize(0, 4095);
  std::vector<ColdFrame> frames(count);
  for (ColdFrame& frame : frames) {
    const Region& region = regions[pickRegion(rng)];
    frame.region = region.name;
    frame.rows.resize(rows);
    for (symbolic::Bindings& row : frame.rows) {
      row = region.benchmark->bindings(64 + 4 * pickSize(rng));
    }
    for (const auto& [name, value] : frame.rows.front()) {
      frame.names.push_back(name);
    }
    for (const std::string& name : frame.names) {
      frame.nameViews.push_back(name);
      for (const symbolic::Bindings& row : frame.rows) {
        frame.values.push_back(row.at(name));
      }
    }
  }
  return frames;
}

void BM_ColdFrameDecide(benchmark::State& state) {
  // The decide stage of a miss-heavy oseld frame, in process: traced
  // decideColumns calls of 64 rows over the whole suite, record tail
  // (the explain publish) included. decideColumns does not memoize, so
  // every row is fresh. With two threads both decide the same hot regions.
  static ColdSuite* shared = nullptr;
  constexpr std::size_t kRows = 64;
  if (state.thread_index() == 0) shared = new ColdSuite();
  const std::vector<ColdFrame> frames = coldFrames(
      256, kRows, 0xC01DULL + static_cast<std::uint64_t>(state.thread_index()));
  std::vector<runtime::Decision> out(kRows);
  std::size_t next = 0;
  for (auto _ : state) {
    const ColdFrame& frame = frames[next++ % frames.size()];
    shared->rt->decideColumns(frame.region, frame.nameViews,
                              reinterpret_cast<const char*>(frame.values.data()),
                              kRows, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
  if (state.thread_index() == 0) {
    delete shared;
    shared = nullptr;
  }
}
BENCHMARK(BM_ColdFrameDecide)->ThreadRange(1, 2)->UseRealTime();

void BM_ColdBatchDecide(benchmark::State& state) {
  // BM_ColdFrameDecide's frames through the memoizing path: traced
  // decideBatch calls of the same 64 rows as per-row maps. Arg is the
  // region cache capacity: 0 has no cache to probe or fill, 64 probes and
  // fills every row for the few that hit — the cache's miss-heavy on/off
  // pair (BM_BatchDecide/64 is the hit-heavy one). With two threads both
  // write the same hot regions' caches. Reports no gate; compare the pair.
  static ColdSuite* shared = nullptr;
  constexpr std::size_t kRows = 64;
  if (state.thread_index() == 0) {
    shared = new ColdSuite(static_cast<std::size_t>(state.range(0)));
  }
  const std::vector<ColdFrame> frames = coldFrames(
      256, kRows, 0xC01DULL + static_cast<std::uint64_t>(state.thread_index()));
  std::vector<std::vector<runtime::DecideRequest>> requests(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (const symbolic::Bindings& row : frames[f].rows) {
      requests[f].push_back({frames[f].region, &row});
    }
  }
  std::vector<runtime::Decision> out(kRows);
  std::size_t next = 0;
  for (auto _ : state) {
    shared->rt->decideBatch(requests[next++ % requests.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
  if (state.thread_index() == 0) {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (const polybench::Benchmark& benchmark : polybench::suite()) {
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        const runtime::DecisionCache::Stats stats =
            shared->rt->decisionCacheStats(kernel.name);
        lookups += stats.lookups;
        hits += stats.hits;
      }
    }
    state.counters["hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0;
    delete shared;
    shared = nullptr;
  }
}
BENCHMARK(BM_ColdBatchDecide)
    ->Arg(0)
    ->Arg(64)
    ->ThreadRange(1, 2)
    ->UseRealTime();

void BM_ServeDecide(benchmark::State& state) {
  // One scalar decide over the oseld wire (loopback Unix socket): client
  // framing (with its 16-byte trace block), two syscalls, server
  // decode/decide/encode/send and the stage clocks.
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const ir::TargetRegion& kernel =
      polybench::benchmarkByName("GEMM").kernels()[0];
  const std::array<ir::TargetRegion, 1> regions{kernel};
  service::ServiceOptions options;
  options.socketPath =
      "/tmp/osel_bm_serve_" + std::to_string(::getpid()) + ".sock";
  options.workerThreads = 1;
  service::Server server(compiler::compileAll(regions, models),
                         runtime::RuntimeOptions{}, options);
  server.registerRegion(kernel);
  server.start();
  service::Client client = service::Client::connect(options.socketPath);
  const symbolic::Bindings bindings{{"n", 9600}};
  (void)client.decide(kernel.name, bindings);  // warm the connection
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.decide(kernel.name, bindings));
  }
  server.stop();
}
BENCHMARK(BM_ServeDecide);

void BM_CpuModelPredict(benchmark::State& state) {
  const symbolic::Bindings bindings{{"n", 9600}};
  const cpumodel::CpuCostModel model(cpumodel::CpuModelParams::power9(), 160);
  const cpumodel::CpuWorkload workload = gemmWorkloads(bindings).first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(workload));
  }
}
BENCHMARK(BM_CpuModelPredict);

void BM_GpuModelPredict(benchmark::State& state) {
  const symbolic::Bindings bindings{{"n", 9600}};
  const gpumodel::GpuCostModel model(gpumodel::GpuDeviceParams::teslaV100());
  const gpumodel::GpuWorkload workload = gemmWorkloads(bindings).second;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(workload));
  }
}
BENCHMARK(BM_GpuModelPredict);

void BM_PadSerializeDeserialize(benchmark::State& state) {
  pad::AttributeDatabase db;
  db.insert(gemmAttributes());
  const std::string text = db.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pad::AttributeDatabase::deserialize(text));
  }
}
BENCHMARK(BM_PadSerializeDeserialize);

void BM_RenderLogCsv(benchmark::State& state) {
  // CSV export of a realistic launch log (~512 records) — the renderer is
  // reserve+append rather than stringstream concatenation.
  const symbolic::Bindings bindings{{"n", 9600}};
  std::vector<runtime::LaunchRecord> log(512);
  const runtime::Decision decision =
      selector().decide(selector().compile(gemmAttributes()), bindings);
  for (std::size_t i = 0; i < log.size(); ++i) {
    log[i].regionName = "gemm_k1";
    log[i].policy = runtime::Policy::ModelGuided;
    log[i].decision = decision;
    log[i].chosen = decision.device;
    log[i].actualSeconds = decision.gpu.totalSeconds;
    log[i].actualGpuSeconds = decision.gpu.totalSeconds;
    log[i].gpuMeasured = true;
    log[i].decisionCompiled = true;
    log[i].decisionCacheHit = i != 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::renderLogCsv(log));
  }
}
BENCHMARK(BM_RenderLogCsv);

void BM_CompileTimeAnalysis(benchmark::State& state) {
  // The *compile-time* half (loadout + IPDA + MCA) for context: expensive
  // relative to the launch-time decision, but paid once per program.
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const ir::TargetRegion& kernel = polybench::benchmarkByName("GEMM").kernels()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::analyzeRegion(kernel, models));
  }
}
BENCHMARK(BM_CompileTimeAnalysis);

}  // namespace

BENCHMARK_MAIN();
