// Reused-output-span and overhead-contract pins for the runtime's decide
// entry points.
//
// decideBatch and decideColumns decide each fresh row in place, straight
// into the caller's output row, so they must overwrite every field of every
// row: a span pre-filled with poisoned decisions (invalid, GPU, a long
// diagnostic, NaN predictions) must come back bit-identical to a fresh
// span and to the interpreted oracle, explain records included. The
// grid covers every Polybench region plus a missing PAD entry, an unusable
// plan, an unbindable row and an armed selector fault, through decideBatch
// and decideColumns alike.
//
// The overhead contract: every row a runtime call serves, cache hit or
// fresh, reports the call's wall time divided by its rows, and every
// explain record the call publishes carries its row's value. decideColumns
// decides every row afresh, so each of its rows publishes a record.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "polybench/polybench.h"
#include "runtime/target_runtime.h"
#include "support/faultinject.h"

#include "batch_test_support.h"

namespace osel::runtime {
namespace {

using batch_test::expectIdenticalDecisions;
using batch_test::expectIdenticalExplains;

/// A registered GEMM copy whose PAD entry has no MCA cycles for the host:
/// its plan is unusable and every row degrades with the plan's reason.
constexpr std::string_view kNoHost = "gemm_no_host";
constexpr std::string_view kMissing = "no_such_region";

const polybench::Benchmark& gemm() {
  return polybench::benchmarkByName("GEMM");
}

std::string kernelOf(const char* benchmark) {
  return polybench::benchmarkByName(benchmark).kernels()[0].name;
}

std::vector<ir::TargetRegion> suiteRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  return regions;
}

/// A traced runtime over every Polybench kernel plus kNoHost.
struct Traced {
  std::unique_ptr<obs::TraceSession> session;
  std::unique_ptr<TargetRuntime> runtime;
};

Traced makeTraced() {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  std::vector<ir::TargetRegion> regions = suiteRegions();
  pad::AttributeDatabase db = compiler::compileAll(regions, models);
  ir::TargetRegion noHost = gemm().kernels()[0];
  noHost.name = std::string(kNoHost);
  pad::RegionAttributes attr = compiler::analyzeRegion(noHost, models);
  attr.machineCyclesPerIter.clear();
  db.insert(std::move(attr));
  regions.push_back(std::move(noHost));

  Traced traced;
  traced.session = std::make_unique<obs::TraceSession>(
      obs::TraceOptions{.explainCapacity = 8192});
  RuntimeOptions options;
  options.selector.cpuThreads = 160;
  options.trace = traced.session.get();
  traced.runtime = std::make_unique<TargetRuntime>(std::move(db), options);
  for (ir::TargetRegion& region : regions) {
    traced.runtime->registerRegion(std::move(region));
  }
  return traced;
}

/// A decision no decide path produces: every field the contract covers
/// holds a value the real row must overwrite.
Decision poisoned() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Decision decision;
  decision.device = Device::Gpu;
  decision.valid = false;
  decision.diagnostic = std::string(300, '#');
  decision.overheadSeconds = nan;
  decision.cpu = {nan, nan, nan, nan, nan, nan, nan, nan};
  decision.gpu.threadsPerBlock = -7;
  decision.gpu.blocks = -7;
  decision.gpu.ompRep = nan;
  decision.gpu.rep = nan;
  decision.gpu.activeSms = -7;
  decision.gpu.activeWarpsPerSm = nan;
  decision.gpu.memCycles = nan;
  decision.gpu.compCycles = nan;
  decision.gpu.mwpWithoutBw = nan;
  decision.gpu.mwpPeakBw = nan;
  decision.gpu.mwp = nan;
  decision.gpu.cwp = nan;
  decision.gpu.execCase = gpumodel::ExecCase::ComputeBound;
  decision.gpu.kernelCycles = nan;
  decision.gpu.kernelSeconds = nan;
  decision.gpu.transferSeconds = nan;
  decision.gpu.launchSeconds = nan;
  decision.gpu.totalSeconds = nan;
  return decision;
}

/// An explain record holding a value the real record must overwrite in
/// every field (bools and enums stay valid values of their types).
obs::DecisionExplain poisonedExplain() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  obs::DecisionExplain explain;
  explain.region.fill('#');
  explain.region.back() = '\0';
  explain.seq = 99;
  explain.atNs = 99;
  explain.path = obs::DecisionPath::Degenerate;
  explain.valid = false;
  explain.chosenGpu = true;
  explain.cpu = {nan, nan, nan, nan, nan, nan, nan, nan, nan, nan};
  explain.gpu = {nan, nan, nan, nan, nan, nan, nan, nan,
                 nan, nan, nan, nan, nan, nan, nan, 7};
  explain.predictedSpeedup = nan;
  explain.overheadSeconds = nan;
  return explain;
}

/// Bit-identical decisions (overheadSeconds excluded).
void expectSameRow(const Decision& row, const Decision& reference) {
  expectIdenticalDecisions(row, reference);
}

/// The interpreted reference for (region, bindings), with its explain
/// record: the oracle walk for a region with a PAD entry, the selector's
/// missing-region degrade otherwise.
Decision referenceDecision(const TargetRuntime& runtime,
                           const std::string& region,
                           const symbolic::Bindings& bindings,
                           obs::DecisionExplain& explain) {
  const pad::RegionAttributes* attr = runtime.database().find(region);
  if (attr == nullptr) {
    const std::string suggestion = runtime.database().nearestRegionName(region);
    return runtime.selector().decide(RegionHandle::missing(region, suggestion),
                                     bindings, &explain);
  }
  return oracle::decide(runtime.selector(), *attr, bindings, &explain);
}

/// Which rows a pass compares with the interpreted reference.
using OracleRows = bool (*)(std::string_view region,
                            const symbolic::Bindings& bindings);

bool everyRow(std::string_view, const symbolic::Bindings&) { return true; }

/// Under an armed selector fault the oracle's walk fails before the
/// selector's fault point on the unusable plan and the unbindable rows (the
/// only ones that bind "m"), so its diagnostic names the walk's failure
/// rather than the fault; every other row is comparable.
bool reachesTheFaultPoint(std::string_view region,
                          const symbolic::Bindings& bindings) {
  return region != kNoHost && !bindings.contains("m");
}

/// The explain records `session` published since `from` (ring order).
std::vector<obs::DecisionExplain> recordsSince(const obs::TraceSession& session,
                                               std::uint64_t from) {
  const std::vector<obs::DecisionExplain> all =
      session.explainRing().snapshot();
  const std::uint64_t recorded = session.explainRing().recorded();
  EXPECT_EQ(recorded, all.size()) << "explain ring overflowed";
  return {all.begin() + static_cast<std::ptrdiff_t>(from), all.end()};
}

// --- decideBatch ------------------------------------------------------------

/// One decideBatch row per Polybench region and size, plus the rows that
/// leave the fast path: a missing PAD entry, the unusable kNoHost plan and
/// an `unbindable` region's row that binds only "m", a symbol it does not
/// read. Such rows share one cache key per region, so each pass names a
/// different region to keep that row fresh. Interleaved so groups arrive
/// unsorted.
struct BatchGrid {
  std::vector<std::string> names;
  std::vector<symbolic::Bindings> bindings;
  std::vector<DecideRequest> requests;
};

BatchGrid batchGrid(const std::vector<std::int64_t>& sizes,
                    const std::string& unbindable) {
  BatchGrid grid;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    const symbolic::Bindings shape = benchmark.bindings(8);
    for (const std::int64_t n : sizes) {
      symbolic::Bindings bindings;
      for (const auto& [symbol, value] : shape) {
        (void)value;
        bindings[symbol] = n;
      }
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        grid.names.push_back(kernel.name);
        grid.bindings.push_back(bindings);
      }
    }
  }
  for (const std::int64_t n : sizes) {
    grid.names.emplace_back(kMissing);
    grid.bindings.push_back(gemm().bindings(8));
    grid.bindings.back()["n"] = n;
    grid.names.emplace_back(kNoHost);
    grid.bindings.push_back(grid.bindings.back());
  }
  grid.names.push_back(unbindable);
  grid.bindings.push_back({{"m", sizes.front()}});  // required "n" unbound
  const std::size_t n = grid.names.size();
  std::size_t stride = 29;
  while (std::gcd(stride, n) != 1) ++stride;  // i * stride % n permutes
  grid.requests.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i * stride) % n;
    grid.requests[i] = {grid.names[j], &grid.bindings[j]};
  }
  return grid;
}

/// Decides `grid` into `reused` on one runtime and into a fresh span on
/// the other; both spans' rows must match each other and the reference.
/// When every row is fresh, the reused runtime's explain records for the
/// call must match the fresh runtime's and the reference records, in
/// region-group order.
void expectBatchPassMatches(Traced& reusedSide, Traced& freshSide,
                            const BatchGrid& grid,
                            std::vector<Decision>& reused, bool allFresh,
                            OracleRows oracleRows = everyRow) {
  const std::uint64_t reusedFrom = reusedSide.session->explainRing().recorded();
  const std::uint64_t freshFrom = freshSide.session->explainRing().recorded();
  reusedSide.runtime->decideBatch(grid.requests, reused);
  std::vector<Decision> fresh(grid.requests.size());
  freshSide.runtime->decideBatch(grid.requests, fresh);

  std::vector<std::size_t> groupOrder(grid.requests.size());
  std::vector<obs::DecisionExplain> expectedExplains(grid.requests.size());
  std::vector<std::uint8_t> compared(grid.requests.size(), 0);
  for (std::size_t i = 0; i < grid.requests.size(); ++i) {
    const std::string region(grid.requests[i].region);
    const symbolic::Bindings& bindings = *grid.requests[i].bindings;
    SCOPED_TRACE("row " + std::to_string(i) + " region '" + region + "'");
    expectSameRow(reused[i], fresh[i]);
    EXPECT_GT(reused[i].overheadSeconds, 0.0);
    groupOrder[i] = i;
    if (!oracleRows(region, bindings)) continue;
    compared[i] = 1;
    const Decision expected = referenceDecision(*reusedSide.runtime, region,
                                                bindings, expectedExplains[i]);
    expectSameRow(reused[i], expected);
  }

  const std::vector<obs::DecisionExplain> reusedRecords =
      recordsSince(*reusedSide.session, reusedFrom);
  const std::vector<obs::DecisionExplain> freshRecords =
      recordsSince(*freshSide.session, freshFrom);
  ASSERT_EQ(reusedRecords.size(), freshRecords.size());
  for (std::size_t k = 0; k < reusedRecords.size(); ++k) {
    SCOPED_TRACE("explain record " + std::to_string(k));
    expectIdenticalExplains(reusedRecords[k], freshRecords[k]);
  }
  if (!allFresh) return;
  ASSERT_EQ(reusedRecords.size(), grid.requests.size());
  // A call publishes its fresh rows group by group, groups sorted by region
  // name with ties in request order.
  std::sort(groupOrder.begin(), groupOrder.end(),
            [&](std::size_t a, std::size_t b) {
              const int cmp =
                  grid.requests[a].region.compare(grid.requests[b].region);
              return cmp != 0 ? cmp < 0 : a < b;
            });
  for (std::size_t k = 0; k < groupOrder.size(); ++k) {
    if (compared[groupOrder[k]] == 0) continue;
    SCOPED_TRACE("explain record " + std::to_string(k));
    expectIdenticalExplains(reusedRecords[k], expectedExplains[groupOrder[k]]);
  }
}

TEST(ReusedSpan, DecideBatchOverwritesEveryFieldOfEveryRow) {
  Traced reusedSide = makeTraced();
  Traced freshSide = makeTraced();
  const BatchGrid grid = batchGrid({0, 1, 3, 64, 1100}, kernelOf("GEMM"));
  const BatchGrid other = batchGrid({2, 48, 640}, kernelOf("MVT"));

  std::vector<Decision> reused(grid.requests.size(), poisoned());
  {
    SCOPED_TRACE("poisoned span, every row fresh");
    expectBatchPassMatches(reusedSide, freshSide, grid, reused, true);
  }
  reused.assign(grid.requests.size(), poisoned());
  {
    SCOPED_TRACE("poisoned span, cache hits");
    expectBatchPassMatches(reusedSide, freshSide, grid, reused, false);
  }
  // The span still holds the grid's rows; decide other keys into it.
  {
    SCOPED_TRACE("span holding earlier rows, every row fresh");
    expectBatchPassMatches(reusedSide, freshSide, other, reused, true);
  }
}

TEST(ReusedSpan, DecideBatchUnderAnArmedSelectorFaultOverwritesEveryRow) {
  Traced reusedSide = makeTraced();
  Traced freshSide = makeTraced();
  const BatchGrid healthy = batchGrid({32, 256}, kernelOf("GEMM"));
  const BatchGrid faulted = batchGrid({33, 257}, kernelOf("MVT"));
  std::vector<Decision> reused(healthy.requests.size(), poisoned());
  expectBatchPassMatches(reusedSide, freshSide, healthy, reused, true);

  // Every model evaluation now throws: valid rows from the pass above are
  // overwritten with the fault's degraded decision.
  const support::ScopedFault fault(support::faultpoints::kSelectorDecide,
                                   {.kind = support::FaultKind::DeviceLost});
  const std::uint64_t from = reusedSide.session->explainRing().recorded();
  expectBatchPassMatches(reusedSide, freshSide, faulted, reused, true,
                         reachesTheFaultPoint);
  for (const Decision& decision : reused) EXPECT_FALSE(decision.valid);
  for (const obs::DecisionExplain& record :
       recordsSince(*reusedSide.session, from)) {
    EXPECT_EQ(record.path, obs::DecisionPath::Degenerate);
    EXPECT_FALSE(record.valid);
  }
}

// --- decideColumns ----------------------------------------------------------

/// One DecideBatch-shaped frame: slot-major int64 columns.
struct Frame {
  std::string region;
  std::vector<std::string> names;
  std::vector<std::int64_t> values;  ///< values[slot * rows + row]
  std::size_t rows = 0;

  /// The row's Bindings, as the frame assigns them.
  [[nodiscard]] symbolic::Bindings row(std::size_t r) const {
    symbolic::Bindings bindings;
    for (std::size_t i = 0; i < names.size(); ++i) {
      bindings[names[i]] = values[i * rows + r];
    }
    return bindings;
  }
};

/// A frame binding every symbol of `shape` to each of `sizes`, one row per
/// size.
Frame frameFor(std::string region, const symbolic::Bindings& shape,
               const std::vector<std::int64_t>& sizes) {
  Frame frame{std::move(region), {}, {}, sizes.size()};
  for (const auto& [symbol, value] : shape) {
    (void)value;
    frame.names.push_back(symbol);
    frame.values.insert(frame.values.end(), sizes.begin(), sizes.end());
  }
  return frame;
}

/// One frame per Polybench region, plus the frames that leave the fast
/// path; `unbindable` names the region of the frame that binds only "m"
/// (see batchGrid).
std::vector<Frame> columnFrames(const std::vector<std::int64_t>& sizes,
                                const std::string& unbindable) {
  std::vector<Frame> frames;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      frames.push_back(frameFor(kernel.name, benchmark.bindings(8), sizes));
    }
  }
  const symbolic::Bindings gemmShape = gemm().bindings(8);
  frames.push_back(frameFor(std::string(kMissing), gemmShape, sizes));
  frames.push_back(frameFor(std::string(kNoHost), gemmShape, sizes));
  frames.push_back(frameFor(unbindable, {{"m", 0}}, sizes));
  return frames;
}

void decideFrame(TargetRuntime& runtime, const Frame& frame,
                 std::span<Decision> out) {
  const std::vector<std::string_view> names(frame.names.begin(),
                                            frame.names.end());
  runtime.decideColumns(frame.region, names,
                        reinterpret_cast<const char*>(frame.values.data()),
                        frame.rows, out);
}

/// decideColumns over every frame into `reused` (one span for all frames)
/// and into fresh spans; rows and explain records (one per row: every
/// column row is fresh) must match each other and, on the rows `oracleRows`
/// selects, the interpreted reference.
void expectColumnsPassMatches(Traced& reusedSide, Traced& freshSide,
                              const std::vector<Frame>& frames,
                              std::vector<Decision>& reused,
                              OracleRows oracleRows = everyRow) {
  for (const Frame& frame : frames) {
    SCOPED_TRACE("frame '" + frame.region + "'");
    const std::uint64_t reusedFrom =
        reusedSide.session->explainRing().recorded();
    const std::uint64_t freshFrom = freshSide.session->explainRing().recorded();
    decideFrame(*reusedSide.runtime, frame, reused);
    std::vector<Decision> fresh(frame.rows);
    decideFrame(*freshSide.runtime, frame, fresh);
    const std::vector<obs::DecisionExplain> reusedRecords =
        recordsSince(*reusedSide.session, reusedFrom);
    const std::vector<obs::DecisionExplain> freshRecords =
        recordsSince(*freshSide.session, freshFrom);
    ASSERT_EQ(reusedRecords.size(), frame.rows);
    ASSERT_EQ(freshRecords.size(), frame.rows);
    for (std::size_t r = 0; r < frame.rows; ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      expectSameRow(reused[r], fresh[r]);
      EXPECT_GT(reused[r].overheadSeconds, 0.0);
      expectIdenticalExplains(reusedRecords[r], freshRecords[r]);
      const symbolic::Bindings bindings = frame.row(r);
      if (!oracleRows(frame.region, bindings)) continue;
      obs::DecisionExplain explain;
      const Decision expected = referenceDecision(
          *reusedSide.runtime, frame.region, bindings, explain);
      expectSameRow(reused[r], expected);
      expectIdenticalExplains(reusedRecords[r], explain);
    }
  }
}

TEST(ReusedSpan, DecideColumnsOverwritesEveryFieldOfEveryRow) {
  Traced reusedSide = makeTraced();
  Traced freshSide = makeTraced();
  const std::vector<Frame> frames =
      columnFrames({0, 1, 3, 64, 1100, 7}, kernelOf("GEMM"));
  const std::vector<Frame> other = columnFrames({2, 48, 640}, kernelOf("MVT"));
  std::vector<Decision> reused(frames.front().rows, poisoned());
  {
    SCOPED_TRACE("poisoned span");
    expectColumnsPassMatches(reusedSide, freshSide, frames, reused);
  }
  reused.assign(frames.front().rows, poisoned());
  {
    SCOPED_TRACE("poisoned span, the same frames again");
    expectColumnsPassMatches(reusedSide, freshSide, frames, reused);
  }
  {
    SCOPED_TRACE("span holding earlier rows");
    expectColumnsPassMatches(reusedSide, freshSide, other, reused);
  }
  // An armed selector fault degrades every model evaluation; the rows the
  // pass above left valid are overwritten with the fault's decision.
  const support::ScopedFault fault(support::faultpoints::kSelectorDecide,
                                   {.kind = support::FaultKind::DeviceLost});
  SCOPED_TRACE("armed selector fault, every row fresh");
  const std::vector<Frame> faulted =
      columnFrames({5, 96, 1024}, kernelOf("ATAX"));
  const std::uint64_t from = reusedSide.session->explainRing().recorded();
  expectColumnsPassMatches(reusedSide, freshSide, faulted, reused,
                           reachesTheFaultPoint);
  for (std::size_t r = 0; r < faulted.front().rows; ++r) {
    EXPECT_FALSE(reused[r].valid);
  }
  const std::vector<obs::DecisionExplain> records =
      recordsSince(*reusedSide.session, from);
  EXPECT_EQ(records.size(), faulted.size() * faulted.front().rows);
  for (const obs::DecisionExplain& record : records) {
    EXPECT_EQ(record.path, obs::DecisionPath::Degenerate);
    EXPECT_FALSE(record.valid);
  }
  // The rows the oracle cannot follow (the unusable plan, the unbindable
  // frame) reach the fault point before the plan's own diagnostic, as every
  // row with a PAD entry does; only the missing PAD entry never gets there.
  Traced third = makeTraced();
  std::string faultDiagnostic;
  for (const Frame& frame : faulted) {
    SCOPED_TRACE("frame '" + frame.region + "'");
    std::vector<Decision> out(frame.rows, poisoned());
    decideFrame(*third.runtime, frame, out);
    for (const Decision& decision : out) {
      EXPECT_FALSE(decision.valid);
      if (frame.region == kMissing) continue;
      if (faultDiagnostic.empty()) faultDiagnostic = decision.diagnostic;
      EXPECT_EQ(decision.diagnostic, faultDiagnostic);
    }
  }
  EXPECT_NE(faultDiagnostic.find("injected"), std::string::npos)
      << faultDiagnostic;
}

// --- The selector's in-place tail -------------------------------------------

TEST(ReusedSpan, DecideIntoOverwritesAPoisonedRowAndExplainRecord) {
  // decideInto writes every field of the row and of the explain record
  // without clearing either first; a poisoned pair must come back equal to
  // decideFromWorkloads into fresh storage and to the oracle.
  const Traced traced = makeTraced();
  const OffloadSelector& selector = traced.runtime->selector();
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      const pad::RegionAttributes& attr =
          traced.runtime->database().at(kernel.name);
      const CompiledRegionPlan plan = selector.compile(attr);
      for (const std::int64_t n : {0, 3, 1100}) {
        SCOPED_TRACE(kernel.name + " n=" + std::to_string(n));
        const symbolic::Bindings bindings = benchmark.bindings(8);
        symbolic::Bindings sized;
        for (const auto& [symbol, value] : bindings) {
          (void)value;
          sized[symbol] = n;
        }
        const cpumodel::CpuWorkload cpu =
            oracle::cpuWorkload(selector, attr, sized);
        const gpumodel::GpuWorkload gpu = oracle::gpuWorkload(attr, sized);
        Decision row = poisoned();
        obs::DecisionExplain explain = poisonedExplain();
        selector.decideInto(plan, cpu, gpu, row, &explain);
        obs::DecisionExplain freshExplain;
        const Decision fresh =
            selector.decideFromWorkloads(plan, cpu, gpu, &freshExplain);
        obs::DecisionExplain oracleExplain;
        const Decision expected =
            oracle::decide(selector, attr, sized, &oracleExplain);
        expectSameRow(row, fresh);
        expectSameRow(row, expected);
        expectIdenticalExplains(explain, freshExplain);
        expectIdenticalExplains(explain, oracleExplain);
        EXPECT_EQ(row.overheadSeconds, 0.0);
        EXPECT_EQ(explain.overheadSeconds, 0.0);
        EXPECT_EQ(explain.seq, 0u);
        EXPECT_EQ(explain.atNs, 0);
        EXPECT_EQ(std::memcmp(explain.region.data(), freshExplain.region.data(),
                              explain.region.size()),
                  0);
      }
    }
  }
  // The degenerate path: an armed fault leaves the row as a fresh
  // Decision the failed evaluation wrote into would hold it.
  const support::ScopedFault fault(support::faultpoints::kSelectorDecide,
                                   {.kind = support::FaultKind::DeviceLost});
  const pad::RegionAttributes& attr =
      traced.runtime->database().at(gemm().kernels()[0].name);
  const CompiledRegionPlan plan = selector.compile(attr);
  const symbolic::Bindings bindings = gemm().bindings(64);
  const cpumodel::CpuWorkload cpu =
      oracle::cpuWorkload(selector, attr, bindings);
  const gpumodel::GpuWorkload gpu = oracle::gpuWorkload(attr, bindings);
  Decision row = poisoned();
  obs::DecisionExplain explain = poisonedExplain();
  selector.decideInto(plan, cpu, gpu, row, &explain);
  Decision expected;
  expected.valid = false;
  expected.device = selector.config().safeDefaultDevice;
  expected.diagnostic =
      selector.decideFromWorkloads(plan, cpu, gpu).diagnostic;
  EXPECT_FALSE(expected.diagnostic.empty());
  expectSameRow(row, expected);
  obs::DecisionExplain expectedExplain;
  expectedExplain.setRegion(attr.regionName);
  expectedExplain.path = obs::DecisionPath::Degenerate;
  expectedExplain.valid = false;
  expectedExplain.chosenGpu = expected.device == Device::Gpu;
  expectedExplain.predictedSpeedup = expected.predictedSpeedup();
  expectIdenticalExplains(explain, expectedExplain);
}

// --- The overhead contract --------------------------------------------------

/// The overhead histogram's sample count (one sample per runtime call).
std::uint64_t overheadSamples(obs::TraceSession& session) {
  return session.metrics().histogram("decision.overhead_s", {}).count();
}

/// Every row of `out` carries one positive overhead, and so does every
/// explain record the call published.
void expectOneCallOverhead(std::span<const Decision> out,
                           const std::vector<obs::DecisionExplain>& records) {
  ASSERT_FALSE(out.empty());
  const double overhead = out.front().overheadSeconds;
  EXPECT_GT(overhead, 0.0);
  for (const Decision& decision : out) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decision.overheadSeconds),
              std::bit_cast<std::uint64_t>(overhead));
  }
  for (const obs::DecisionExplain& record : records) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record.overheadSeconds),
              std::bit_cast<std::uint64_t>(overhead));
  }
}

TEST(OverheadContract, BatchHitsAndFreshRowsShareTheCallsAmortizedCost) {
  Traced traced = makeTraced();
  TargetRuntime& runtime = *traced.runtime;
  obs::TraceSession& session = *traced.session;
  const std::string region = gemm().kernels()[0].name;
  std::vector<symbolic::Bindings> bindings;
  for (const std::int64_t n : {64, 96, 128, 160, 192, 224}) {
    bindings.push_back(gemm().bindings(n));
  }
  // Warm every other key, then decide all of them (plus a missing region
  // and an unbindable row) in one call: hits and fresh rows interleave.
  for (std::size_t i = 0; i < bindings.size(); i += 2) {
    (void)runtime.decide(region, bindings[i]);
  }
  const symbolic::Bindings unbound{{"m", 64}};
  std::vector<DecideRequest> requests;
  for (const symbolic::Bindings& row : bindings) {
    requests.push_back({region, &row});
  }
  requests.push_back({kMissing, &bindings[0]});
  requests.push_back({region, &unbound});
  requests.push_back({kNoHost, &bindings[1]});

  const DecisionCache::Stats before = runtime.decisionCacheStats(region);
  const std::uint64_t from = session.explainRing().recorded();
  const std::uint64_t samples = overheadSamples(session);
  std::vector<Decision> out(requests.size(), poisoned());
  runtime.decideBatch(requests, out);
  const DecisionCache::Stats after = runtime.decisionCacheStats(region);
  EXPECT_EQ(after.hits - before.hits, bindings.size() / 2);
  const std::vector<obs::DecisionExplain> records =
      recordsSince(session, from);
  // The fresh GEMM rows, the unbindable row, the missing and the unusable
  // region each publish one record; the hits publish none.
  EXPECT_EQ(records.size(), bindings.size() / 2 + 3);
  expectOneCallOverhead(out, records);
  EXPECT_EQ(overheadSamples(session) - samples, 1u);
}

TEST(OverheadContract, EveryColumnRowSharesTheCallsAmortizedCost) {
  Traced traced = makeTraced();
  TargetRuntime& runtime = *traced.runtime;
  obs::TraceSession& session = *traced.session;
  const std::string region = gemm().kernels()[0].name;
  const std::array<std::string_view, 1> names{"n"};
  const std::array<std::int64_t, 6> values{64, 96, 128, 160, 192, 224};
  // Every other key is in the cache, but decideColumns does not memoize:
  // every row is fresh and publishes its record.
  for (std::size_t i = 0; i < values.size(); i += 2) {
    (void)runtime.decide(region, {{"n", values[i]}});
  }
  const std::uint64_t from = session.explainRing().recorded();
  const std::uint64_t samples = overheadSamples(session);
  std::vector<Decision> out(values.size(), poisoned());
  runtime.decideColumns(region, names,
                        reinterpret_cast<const char*>(values.data()),
                        values.size(), out);
  const std::vector<obs::DecisionExplain> records =
      recordsSince(session, from);
  EXPECT_EQ(records.size(), values.size());
  expectOneCallOverhead(out, records);
  EXPECT_EQ(overheadSamples(session) - samples, 1u);

  // A frame whose rows cannot complete (a required slot missing): the same
  // rule holds.
  const std::array<std::string_view, 1> wrong{"m"};
  const std::uint64_t offFrom = session.explainRing().recorded();
  out.assign(values.size(), poisoned());
  runtime.decideColumns(region, wrong,
                        reinterpret_cast<const char*>(values.data()),
                        values.size(), out);
  const std::vector<obs::DecisionExplain> offRecords =
      recordsSince(session, offFrom);
  EXPECT_EQ(offRecords.size(), values.size());
  expectOneCallOverhead(out, offRecords);
  EXPECT_EQ(overheadSamples(session) - samples, 2u);
}

TEST(OverheadContract, ScalarDecideReportsItsCallOnAMissAndOnAHit) {
  Traced traced = makeTraced();
  TargetRuntime& runtime = *traced.runtime;
  obs::TraceSession& session = *traced.session;
  const std::string region = gemm().kernels()[0].name;
  const symbolic::Bindings bindings = gemm().bindings(320);
  for (const bool hit : {false, true}) {
    SCOPED_TRACE(hit ? "hit" : "miss");
    const std::uint64_t from = session.explainRing().recorded();
    const std::uint64_t samples = overheadSamples(session);
    const Decision decision = runtime.decide(region, bindings);
    const std::vector<obs::DecisionExplain> records =
        recordsSince(session, from);
    EXPECT_EQ(records.size(), hit ? 0u : 1u);
    expectOneCallOverhead(std::span<const Decision>(&decision, 1), records);
    EXPECT_EQ(overheadSamples(session) - samples, 1u);
  }
  // Regions off the fast path report their call's time too.
  for (const std::string_view name : {kMissing, kNoHost}) {
    SCOPED_TRACE(std::string(name));
    const std::uint64_t from = session.explainRing().recorded();
    const Decision decision = runtime.decide(std::string(name), bindings);
    EXPECT_FALSE(decision.valid);
    expectOneCallOverhead(std::span<const Decision>(&decision, 1),
                          recordsSince(session, from));
  }
}

}  // namespace
}  // namespace osel::runtime
