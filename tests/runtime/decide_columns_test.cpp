// Equivalence pins for TargetRuntime::decideColumns, the entry point oseld
// hands DecideBatch frames to: deciding a group straight from slot-major
// wire columns must be bit-identical to decideBatch over the per-row
// Bindings maps the same frame describes. decideColumns does not memoize,
// so its twin decideBatch runtime runs without a decision cache: decisions,
// decision counters and, with a trace session attached, the explain records
// (all but seq, atNs and overheadSeconds) must agree, and the columns
// runtime's caches must see no traffic. Covers every Polybench region over
// a size grid (twice, with amortized overhead), duplicate and unknown slot
// names, a missing required slot, regions without a usable plan, and the
// empty frame. decideBatch shares decideColumns' group routine, so the
// degraded rows (a missing required slot, an unusable plan) are also
// diffed against the interpreted oracle. Plus the cache pin (decideColumns
// neither probes nor fills it; a memoizing decideBatch of the same keys
// misses, then hits with the same decisions) and the traced full-frame
// allocation pin, with one-row calls.
//
// decideColumns answers first and hands back its record tail (the explain
// publish) as a PendingRecord, which oseld holds until the reply is sent
// and the in-process calls above drop at once. Held, the tail is pinned
// equal to decideBatch once it ran, recording nothing before it, running
// from any later decide call on the thread (another runtime's included),
// surviving a re-registration of its region, and allocating nothing in
// steady state.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
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
using batch_test::expectIdenticalExplains;

/// One DecideBatch-shaped group: a region, its slot names, and the value
/// matrix, slot-major (`values[slot * rows + row]`).
struct Frame {
  std::string region;
  std::vector<std::string> names;
  std::vector<std::int64_t> values;
  std::size_t rows = 0;
};

/// Frame over `region` binding each of `names` per row: rows[r][i] is
/// names[i]'s value in row r.
Frame makeFrame(std::string region, std::vector<std::string> names,
                const std::vector<std::vector<std::int64_t>>& rows) {
  Frame frame{std::move(region), std::move(names), {}, rows.size()};
  frame.values.resize(frame.names.size() * frame.rows);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    for (std::size_t i = 0; i < frame.names.size(); ++i) {
      frame.values[i * frame.rows + r] = rows[r][i];
    }
  }
  return frame;
}

/// Kernel over two runtime symbols, so column binding covers a plan with
/// more than one slot.
ir::TargetRegion pairKernel() {
  using namespace osel::ir;
  return RegionBuilder("pair_mn")
      .param("m")
      .param("n")
      .array("x", ScalarType::F32, {sym("m"), sym("n")}, Transfer::To)
      .array("y", ScalarType::F32, {sym("m"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("m"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::store("y", {sym("i"), sym("j")},
                             read("x", {sym("i"), sym("j")}) * num(3.0)))
      .build();
}

std::vector<ir::TargetRegion> allRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  regions.push_back(pairKernel());
  return regions;
}

/// Two runtimes built alike but for the cache — decideColumns runs on one,
/// decideBatch on the other, which memoizes nothing, as decideColumns does
/// not — each with its own trace session when traced.
struct Twins {
  std::unique_ptr<obs::TraceSession> columnsTrace;
  std::unique_ptr<obs::TraceSession> batchTrace;
  std::unique_ptr<TargetRuntime> columns;
  std::unique_ptr<TargetRuntime> batch;
};

/// Registers every region except `unregistered` (whose PAD entries stay).
Twins makeTwins(bool traced, RuntimeOptions options = {},
                const std::vector<std::string>& unregistered = {}) {
  const std::vector<ir::TargetRegion> regions = allRegions();
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  const pad::AttributeDatabase db = compiler::compileAll(regions, models);
  options.selector.cpuThreads = 160;
  Twins twins;
  const auto build = [&](std::unique_ptr<obs::TraceSession>& session,
                         std::size_t cacheCapacity) {
    if (traced) {
      session = std::make_unique<obs::TraceSession>(
          obs::TraceOptions{.explainCapacity = 8192});
    }
    RuntimeOptions own = options;
    own.trace = session.get();
    own.decisionCacheCapacity = cacheCapacity;
    auto runtime = std::make_unique<TargetRuntime>(db, own);
    for (const ir::TargetRegion& region : regions) {
      bool skip = false;
      for (const std::string& name : unregistered) skip |= name == region.name;
      if (!skip) runtime->registerRegion(region);
    }
    return runtime;
  };
  twins.columns = build(twins.columnsTrace, options.decisionCacheCapacity);
  twins.batch = build(twins.batchTrace, 0);
  return twins;
}

/// The per-row Bindings a frame describes: each row assigns the names in
/// order, so a duplicate name keeps its last value.
std::vector<symbolic::Bindings> rowBindings(const Frame& frame) {
  std::vector<symbolic::Bindings> rows(frame.rows);
  for (std::size_t i = 0; i < frame.names.size(); ++i) {
    for (std::size_t r = 0; r < frame.rows; ++r) {
      rows[r][frame.names[i]] = frame.values[i * frame.rows + r];
    }
  }
  return rows;
}

/// decideColumns over the frame, with the value matrix deliberately placed
/// at an odd address (the wire gives no alignment guarantee).
std::vector<Decision> decideColumns(TargetRuntime& runtime,
                                    const Frame& frame) {
  std::vector<std::string_view> names(frame.names.begin(), frame.names.end());
  const std::size_t bytes = frame.values.size() * sizeof(std::int64_t);
  std::vector<char> unaligned(bytes + 1);
  if (bytes > 0) std::memcpy(unaligned.data() + 1, frame.values.data(), bytes);
  std::vector<Decision> out(frame.rows);
  runtime.decideColumns(frame.region, names, unaligned.data() + 1, frame.rows,
                        out);
  return out;
}

std::vector<Decision> decideBatch(TargetRuntime& runtime, const Frame& frame) {
  const std::vector<symbolic::Bindings> bindings = rowBindings(frame);
  std::vector<DecideRequest> requests(frame.rows);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    requests[r] = {frame.region, &bindings[r]};
  }
  std::vector<Decision> out(frame.rows);
  runtime.decideBatch(requests, out);
  return out;
}

/// Decides `frame` on both twins and asserts row-by-row bit-identity;
/// returns the decideColumns decisions.
std::vector<Decision> expectColumnsMatchBatch(Twins& twins,
                                              const Frame& frame) {
  const std::vector<Decision> columns = decideColumns(*twins.columns, frame);
  const std::vector<Decision> batched = decideBatch(*twins.batch, frame);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    SCOPED_TRACE("region '" + frame.region + "' row " + std::to_string(r));
    expectIdenticalDecisions(columns[r], batched[r]);
  }
  return columns;
}

/// expectColumnsMatchBatch(), and each decideColumns row against the
/// interpreted oracle: the decision and, traced, its explain record (every
/// row is decided afresh). The frame's region has a PAD entry.
std::vector<Decision> expectColumnsMatchOracle(Twins& twins,
                                               const Frame& frame) {
  const obs::TraceSession* session = twins.columnsTrace.get();
  const std::uint64_t from =
      session != nullptr ? session->explainRing().recorded() : 0;
  const std::vector<Decision> columns = expectColumnsMatchBatch(twins, frame);
  std::vector<obs::DecisionExplain> records;
  if (session != nullptr) {
    const std::vector<obs::DecisionExplain> all =
        session->explainRing().snapshot();
    EXPECT_EQ(session->explainRing().recorded(), all.size());
    records.assign(all.begin() + static_cast<std::ptrdiff_t>(from), all.end());
    EXPECT_EQ(records.size(), frame.rows);
  }
  const pad::RegionAttributes& attr =
      twins.columns->database().at(frame.region);
  const std::vector<symbolic::Bindings> bindings = rowBindings(frame);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    SCOPED_TRACE("oracle, region '" + frame.region + "' row " +
                 std::to_string(r));
    obs::DecisionExplain explain;
    const Decision expected = oracle::decide(twins.columns->selector(), attr,
                                             bindings[r], &explain);
    expectIdenticalDecisions(columns[r], expected);
    if (records.size() == frame.rows) {
      expectIdenticalExplains(records[r], explain);
    }
  }
  return columns;
}

/// The columns twin's caches saw no traffic, and both twins' decision
/// counters and explain rings agree.
void expectTwinsAgree(const Twins& twins) {
  for (const ir::TargetRegion& region : allRegions()) {
    const DecisionCache::Stats stats =
        twins.columns->decisionCacheStats(region.name);
    EXPECT_EQ(stats.lookups, 0u) << region.name;
    EXPECT_EQ(stats.insertions, 0u) << region.name;
  }
  if (twins.columnsTrace == nullptr) return;
  obs::TraceSession& a = *twins.columnsTrace;
  obs::TraceSession& b = *twins.batchTrace;
  for (const char* counter :
       {"decision.compiled", "decision.cache_hit", "decision.degenerate"}) {
    EXPECT_EQ(a.metrics().counter(counter).value(),
              b.metrics().counter(counter).value())
        << counter;
  }
  EXPECT_EQ(a.explainRing().recorded(), b.explainRing().recorded());
  EXPECT_EQ(a.explainRing().dropped(), b.explainRing().dropped());
  const std::vector<obs::DecisionExplain> recordsA = a.explainRing().snapshot();
  const std::vector<obs::DecisionExplain> recordsB = b.explainRing().snapshot();
  ASSERT_EQ(recordsA.size(), recordsB.size());
  for (std::size_t i = 0; i < recordsA.size(); ++i) {
    SCOPED_TRACE("explain record " + std::to_string(i));
    EXPECT_EQ(recordsA[i].seq, i);
    expectIdenticalExplains(recordsA[i], recordsB[i]);
  }
}

/// Every region as one frame over a size grid: degenerate sizes, a
/// duplicate row, sizes far apart. pair_mn binds two symbols.
std::vector<Frame> gridFrames() {
  const std::vector<std::int64_t> sizes{0, 1, 2, 3, 7, 32, 256, 1100, 4096, 32};
  std::vector<Frame> frames;
  for (const ir::TargetRegion& region : allRegions()) {
    std::vector<std::vector<std::int64_t>> rows;
    const bool pair = region.name == "pair_mn";
    for (const std::int64_t n : sizes) {
      rows.push_back(pair ? std::vector<std::int64_t>{n, 3 * n + 1}
                          : std::vector<std::int64_t>{n});
    }
    std::vector<std::string> names{"n"};
    if (pair) names.push_back("m");
    frames.push_back(makeFrame(region.name, names, rows));
  }
  return frames;
}

void runGrid(bool traced) {
  Twins twins = makeTwins(traced);
  const std::vector<Frame> frames = gridFrames();
  for (const Frame& frame : frames) (void)expectColumnsMatchBatch(twins, frame);
  expectTwinsAgree(twins);
  if (traced) {
    // Every row is a fresh decision, the duplicate included.
    EXPECT_EQ(twins.columnsTrace->explainRing().recorded(),
              frames.size() * frames.front().rows);
  }

  // Second pass: the same frames are decided afresh again, every row at the
  // amortized cost of its call — one shared, positive overheadSeconds per
  // frame.
  for (const Frame& frame : frames) {
    const std::vector<Decision> columns = expectColumnsMatchBatch(twins, frame);
    for (const Decision& decision : columns) {
      EXPECT_GT(decision.overheadSeconds, 0.0);
      EXPECT_EQ(decision.overheadSeconds, columns.front().overheadSeconds);
    }
  }
  expectTwinsAgree(twins);
  if (traced) {
    EXPECT_EQ(twins.columnsTrace->explainRing().recorded(),
              2 * frames.size() * frames.front().rows);
  }
}

TEST(DecideColumns, MatchesDecideBatchOverPolybenchGrid) { runGrid(false); }

TEST(DecideColumns, MatchesDecideBatchOverPolybenchGridTraced) {
  runGrid(true);
}

TEST(DecideColumns, DuplicateAndUnknownSlotNamesBindLikeAMap) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    Twins twins = makeTwins(traced);
    // "n" twice (the last column wins) and a name no plan reads.
    const Frame noisy = makeFrame("pair_mn", {"n", "bogus", "m", "n"},
                                  {{1, 99, 64, 128},
                                   {2, 98, 96, 256},
                                   {3, 97, 64, 128},
                                   {4, 96, 8, 1100}});
    const std::vector<Decision> columns = expectColumnsMatchBatch(twins, noisy);
    // The same rows without the noise decide identically.
    const Frame clean = makeFrame(
        "pair_mn", {"m", "n"}, {{64, 128}, {96, 256}, {64, 128}, {8, 1100}});
    Twins fresh = makeTwins(traced);
    const std::vector<Decision> reference =
        decideColumns(*fresh.columns, clean);
    for (std::size_t r = 0; r < clean.rows; ++r) {
      expectIdenticalDecisions(columns[r], reference[r]);
      EXPECT_TRUE(columns[r].valid);
    }
    // The GEMM kernel ignores the unknown name too.
    const std::string gemm =
        polybench::benchmarkByName("GEMM").kernels()[0].name;
    (void)expectColumnsMatchBatch(
        twins, makeFrame(gemm, {"bogus", "n", "n"}, {{5, 7, 640}, {6, 9, 48}}));
    expectTwinsAgree(twins);
  }
}

TEST(DecideColumns, MissingRequiredSlotDegradesLikeDecideBatch) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    Twins twins = makeTwins(traced);
    const std::string gemm =
        polybench::benchmarkByName("GEMM").kernels()[0].name;
    // "n" is required; "m" is no symbol of GEMM's.
    const std::vector<Decision> wrong =
        expectColumnsMatchOracle(twins, makeFrame(gemm, {"m"}, {{64}, {128}}));
    for (const Decision& decision : wrong) {
      EXPECT_FALSE(decision.valid);
      EXPECT_FALSE(decision.diagnostic.empty());
    }
    // pair_mn with only one of its two required symbols: the diagnostic
    // embeds the bound "n" substituted into the trip count, and the row
    // binding n = 0 completes (the zero absorbs the unbound "m").
    const std::vector<Decision> pair = expectColumnsMatchOracle(
        twins, makeFrame("pair_mn", {"n"}, {{64}, {0}, {64}}));
    EXPECT_FALSE(pair[0].valid);
    EXPECT_NE(pair[0].diagnostic.find("unbound symbol in 64"),
              std::string::npos)
        << pair[0].diagnostic;
    EXPECT_EQ(pair[1].diagnostic.find("unbound"), std::string::npos)
        << pair[1].diagnostic;
    // No names at all: the same key as the first GEMM frame's rows, decided
    // afresh.
    (void)expectColumnsMatchOracle(twins, makeFrame(gemm, {}, {{}, {}}));
    expectTwinsAgree(twins);
  }
}

TEST(DecideColumns, RegionsWithoutARegisteredPlanMatchDecideBatch) {
  const std::string gemm = polybench::benchmarkByName("GEMM").kernels()[0].name;
  const std::string mvt = polybench::benchmarkByName("MVT").kernels()[0].name;
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    // MVT's first kernel has a PAD entry but is not registered: a plan
    // compiled for the group decides it. no_such_region and the near miss
    // have no PAD entry at all: they degrade to the safe default.
    Twins twins = makeTwins(traced, {}, {mvt});
    ASSERT_FALSE(twins.columns->hasRegion(mvt));
    const std::vector<std::vector<std::int64_t>> rows{{3}, {64}, {1100}, {64}};
    (void)expectColumnsMatchBatch(twins, makeFrame(mvt, {"n"}, rows));
    const std::vector<Decision> missing = expectColumnsMatchBatch(
        twins, makeFrame("no_such_region", {"n"}, rows));
    for (const Decision& decision : missing) EXPECT_FALSE(decision.valid);
    (void)expectColumnsMatchBatch(twins, makeFrame(gemm + "x", {"n"}, rows));
    expectTwinsAgree(twins);
  }
}

TEST(DecideColumns, UnusablePlansMatchDecideBatch) {
  // A selector whose MCA host model has no PAD entry: every registered plan
  // is unusable and every row degrades with the plan's recorded reason.
  RuntimeOptions options;
  options.selector.mcaModelName = "NO_SUCH_HOST";
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    Twins twins = makeTwins(traced, options);
    const std::string gemm =
        polybench::benchmarkByName("GEMM").kernels()[0].name;
    ASSERT_FALSE(twins.columns->plan(gemm)->fastPathUsable());
    const std::vector<Decision> out =
        expectColumnsMatchOracle(twins, makeFrame(gemm, {"n"}, {{64}, {128}}));
    for (const Decision& decision : out) {
      EXPECT_FALSE(decision.valid);
      EXPECT_NE(decision.diagnostic.find("NO_SUCH_HOST"), std::string::npos)
          << decision.diagnostic;
    }
    expectTwinsAgree(twins);
  }
}

TEST(DecideColumns, ZeroRowsIsANoOp) {
  Twins twins = makeTwins(true);
  const std::string gemm = polybench::benchmarkByName("GEMM").kernels()[0].name;
  const std::array<std::string_view, 1> names{"n"};
  std::vector<Decision> out;
  twins.columns->decideColumns(gemm, names, nullptr, 0, out);
  EXPECT_EQ(twins.columnsTrace->recorded(), 0u);
  EXPECT_EQ(twins.columnsTrace->explainRing().recorded(), 0u);
  EXPECT_EQ(twins.columns->decisionCacheStats(gemm).lookups, 0u);
}

TEST(DecideColumns, RejectsUndersizedOutputSpan) {
  Twins twins = makeTwins(false);
  const std::string gemm = polybench::benchmarkByName("GEMM").kernels()[0].name;
  const std::array<std::string_view, 1> names{"n"};
  const std::array<std::int64_t, 2> values{64, 128};
  std::vector<Decision> out(1);
  EXPECT_THROW(twins.columns->decideColumns(
                   gemm, names, reinterpret_cast<const char*>(values.data()),
                   values.size(), out),
               support::PreconditionError);
}

/// A traced runtime with GEMM's first kernel registered, the oseld shape.
struct TracedGemm {
  obs::TraceSession session;
  std::unique_ptr<TargetRuntime> runtime;
  const ir::TargetRegion& kernel =
      polybench::benchmarkByName("GEMM").kernels()[0];

  TracedGemm() {
    const std::array<ir::TargetRegion, 1> regions{kernel};
    const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
    RuntimeOptions options;
    options.selector.cpuThreads = 160;
    options.trace = &session;
    runtime = std::make_unique<TargetRuntime>(
        compiler::compileAll(regions, models), options);
    runtime->registerRegion(kernel);
  }

  [[nodiscard]] std::uint64_t counter(const char* name) {
    return session.metrics().counter(name).value();
  }
};

/// One 64-row frame of GEMM sizes, the k-th such frame (no two share a key).
Frame gemmFrame(const std::string& region, std::int64_t k) {
  constexpr std::int64_t kRows = 64;
  std::vector<std::vector<std::int64_t>> rows;
  for (std::int64_t r = 0; r < kRows; ++r) {
    rows.push_back({64 + 4 * (k * kRows + r)});
  }
  return makeFrame(region, {"n"}, rows);
}

TEST(DecideColumns, NeverTouchesTheRegionCache) {
  // oseld's frames do not memoize. After one-row and 64-row decideColumns
  // frames the region's cache has seen no lookup and holds nothing, the
  // runtime-wide hit ratio has not moved, and every row was decided
  // afresh. A memoizing decideBatch of the same keys then misses on every
  // row, and a second one is served from the cache — both with the
  // decisions decideColumns made.
  TracedGemm traced;
  TargetRuntime& runtime = *traced.runtime;
  const std::string& region = traced.kernel.name;
  const Frame frame = gemmFrame(region, 0);
  const std::vector<Decision> columns = decideColumns(runtime, frame);
  const Frame scalar = makeFrame(region, {"n"}, {{frame.values[0]}});
  (void)decideColumns(runtime, scalar);
  (void)decideColumns(runtime, scalar);
  const DecisionCache::Stats untouched = runtime.decisionCacheStats(region);
  EXPECT_EQ(untouched.lookups, 0u);
  EXPECT_EQ(untouched.insertions, 0u);
  EXPECT_EQ(traced.counter("decision.cache_hit"), 0u);
  EXPECT_EQ(traced.counter("decision.compiled"), frame.rows + 2);
  EXPECT_EQ(traced.session.explainRing().recorded(), frame.rows + 2);
  EXPECT_EQ(
      traced.session.metrics().gauge("decision_cache.hit_ratio").value(), 0.0);

  const std::vector<Decision> missed = decideBatch(runtime, frame);
  const DecisionCache::Stats afterMiss = runtime.decisionCacheStats(region);
  EXPECT_EQ(afterMiss.lookups, frame.rows);
  EXPECT_EQ(afterMiss.hits, 0u);
  EXPECT_EQ(afterMiss.insertions, frame.rows);
  const std::vector<Decision> hit = decideBatch(runtime, frame);
  EXPECT_EQ(runtime.decisionCacheStats(region).hits, frame.rows);
  for (std::size_t r = 0; r < frame.rows; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    expectIdenticalDecisions(missed[r], columns[r]);
    expectIdenticalDecisions(hit[r], columns[r]);
  }
}

TEST(DecideColumns, TracedFullMissGroupDoesNotAllocate) {
  // The oseld shape: a traced runtime, one 64-row frame of sizes no earlier
  // frame decided. Once the arena and the explain buffer are sized by a
  // first such frame, a second one decides every row afresh and records 64
  // explain records in one publish — all without touching the heap.
  TracedGemm traced;
  TargetRuntime& runtime = *traced.runtime;
  const std::string& region = traced.kernel.name;
  const Frame warm = gemmFrame(region, 0);
  const Frame fresh = gemmFrame(region, 1);
  const std::size_t rows = fresh.rows;
  const std::array<std::string_view, 1> names{"n"};
  std::vector<Decision> out(rows);
  runtime.decideColumns(region, names,
                        reinterpret_cast<const char*>(warm.values.data()), rows,
                        out);
  const std::uint64_t explained = traced.session.explainRing().recorded();
  const std::uint64_t compiled = traced.counter("decision.compiled");

  const std::uint64_t before = allocationCount();
  runtime.decideColumns(region, names,
                        reinterpret_cast<const char*>(fresh.values.data()),
                        rows, out);
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(after - before, 0u)
      << "traced full-miss decideColumns allocated " << (after - before)
      << " times";
  EXPECT_EQ(traced.session.explainRing().recorded() - explained, rows);
  EXPECT_EQ(traced.counter("decision.compiled") - compiled, rows);
  EXPECT_EQ(runtime.decisionCacheStats(region).lookups, 0u);
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);

  // One-row calls, the shape of oseld's scalar frames: keys the frames
  // above decided, each decided afresh. The first two calls are the
  // warm-up.
  const std::array<std::int64_t, 4> single{fresh.values[0], warm.values[0],
                                           fresh.values[2], warm.values[1]};
  const auto decideOne = [&](std::size_t i) {
    runtime.decideColumns(region, names,
                          reinterpret_cast<const char*>(&single[i]), 1, out);
  };
  decideOne(0);
  decideOne(1);
  const std::uint64_t oneRowExplained = traced.session.explainRing().recorded();
  const std::uint64_t oneRowCompiled = traced.counter("decision.compiled");
  const std::uint64_t oneRowBefore = allocationCount();
  decideOne(2);
  decideOne(3);
  const std::uint64_t oneRowAfter = allocationCount();
  EXPECT_EQ(oneRowAfter - oneRowBefore, 0u)
      << "traced one-row decideColumns allocated "
      << (oneRowAfter - oneRowBefore) << " times";
  EXPECT_EQ(traced.session.explainRing().recorded() - oneRowExplained, 2u);
  EXPECT_EQ(traced.counter("decision.compiled") - oneRowCompiled, 2u);
  EXPECT_EQ(traced.counter("decision.cache_hit"), 0u);
  EXPECT_TRUE(out[0].valid);
}

/// decideColumns over the frame, holding its tail for the caller.
PendingRecord decideDeferred(TargetRuntime& runtime, const Frame& frame,
                             std::vector<Decision>& out) {
  std::vector<std::string_view> names(frame.names.begin(), frame.names.end());
  out.assign(frame.rows, Decision{});
  return runtime.decideColumns(
      frame.region, names,
      reinterpret_cast<const char*>(frame.values.data()), frame.rows, out);
}

TEST(DecideColumns, DeferredTailMatchesDecideBatchOnceItRuns) {
  Twins twins = makeTwins(/*traced=*/true);
  const std::vector<Frame> frames = gridFrames();
  obs::TraceSession& session = *twins.columnsTrace;
  // Twice over the grid, every row fresh on both passes.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Frame& frame : frames) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " region '" +
                   frame.region + "'");
      const std::uint64_t recorded = session.explainRing().recorded();
      std::vector<Decision> deferred;
      PendingRecord tail = decideDeferred(*twins.columns, frame, deferred);
      // Answered, not recorded: nothing published yet.
      EXPECT_EQ(session.explainRing().recorded(), recorded);
      tail.run();
      EXPECT_EQ(session.explainRing().recorded(), recorded + frame.rows);
      const std::vector<Decision> batched = decideBatch(*twins.batch, frame);
      for (std::size_t r = 0; r < frame.rows; ++r) {
        SCOPED_TRACE("row " + std::to_string(r));
        expectIdenticalDecisions(deferred[r], batched[r]);
      }
    }
    expectTwinsAgree(twins);
  }
}

TEST(DecideColumns, PendingTailRunsBeforeTheThreadsNextDecideCall) {
  Twins twins = makeTwins(/*traced=*/true);
  TargetRuntime& a = *twins.columns;
  obs::TraceSession& ringA = *twins.columnsTrace;
  const std::string region =
      polybench::benchmarkByName("GEMM").kernels()[0].name;
  const Frame first = makeFrame(region, {"n"}, {{100}, {200}, {300}});
  const Frame second = makeFrame(region, {"n"}, {{400}, {500}});

  // Another runtime's in-process call on this thread runs A's tail first.
  std::vector<Decision> out1;
  PendingRecord tail = decideDeferred(a, first, out1);
  EXPECT_EQ(ringA.explainRing().recorded(), 0u);
  (void)twins.batch->decide(region, {{"n", 64}});
  EXPECT_EQ(ringA.explainRing().recorded(), first.rows);
  // The handle's tail already ran: run() does nothing more.
  tail.run();
  EXPECT_EQ(ringA.explainRing().recorded(), first.rows);

  // A pipelined frame: the next deferred call runs the previous one's tail
  // before it decides and, moved over a spent handle, records nothing
  // twice.
  std::vector<Decision> out2;
  tail = decideDeferred(a, first, out2);
  EXPECT_EQ(ringA.explainRing().recorded(), first.rows);
  std::vector<Decision> out3;
  tail = decideDeferred(a, second, out3);
  EXPECT_EQ(ringA.explainRing().recorded(), 2 * first.rows);
  {
    // A handle destroyed without run() still records.
    const PendingRecord dropped = std::move(tail);
  }
  const std::vector<obs::DecisionExplain> records =
      ringA.explainRing().snapshot();
  ASSERT_EQ(records.size(), 2 * first.rows + second.rows);
  for (std::size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(records[r].seq, r);
    // Each record carries its call's answer-phase amortized cost.
    const double overhead = r < first.rows       ? out1[0].overheadSeconds
                            : r < 2 * first.rows ? out2[0].overheadSeconds
                                                 : out3[0].overheadSeconds;
    EXPECT_EQ(records[r].overheadSeconds, overhead);
  }
  EXPECT_EQ(a.decisionCacheStats(region).lookups, 0u);
}

TEST(DecideColumns, PendingTailSurvivesReRegistration) {
  TracedGemm traced;
  TargetRuntime& runtime = *traced.runtime;
  const std::string& region = traced.kernel.name;
  const Frame frame = makeFrame(region, {"n"}, {{96}, {128}, {4096}});
  std::vector<Decision> out;
  PendingRecord tail = decideDeferred(runtime, frame, out);
  // The re-registration swaps in a fresh plan and cache and frees the
  // entry the call decided on. The pending tail holds only the call's
  // explain records, in the thread's arena, so it still publishes them.
  runtime.registerRegion(traced.kernel);
  EXPECT_EQ(traced.session.explainRing().recorded(), 0u);
  tail.run();
  const std::vector<obs::DecisionExplain> records =
      traced.session.explainRing().snapshot();
  ASSERT_EQ(records.size(), frame.rows);
  for (const obs::DecisionExplain& record : records) {
    EXPECT_EQ(record.regionView(), region);
    EXPECT_EQ(record.overheadSeconds, out[0].overheadSeconds);
  }
  const DecisionCache::Stats stats = runtime.decisionCacheStats(region);
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);
}

TEST(DecideColumns, DeferredTracedFullMissGroupAndItsTailDoNotAllocate) {
  // TracedFullMissGroupDoesNotAllocate's shape as oseld calls it, holding
  // the tail: the answer and, separately, its record tail (64 explain
  // records in one publish) touch no heap once a first such frame sized
  // everything.
  TracedGemm traced;
  TargetRuntime& runtime = *traced.runtime;
  const std::string& region = traced.kernel.name;
  const Frame warm = gemmFrame(region, 0);
  const Frame fresh = gemmFrame(region, 1);
  const std::size_t rows = fresh.rows;
  const std::array<std::string_view, 1> names{"n"};
  std::vector<Decision> out(rows);
  PendingRecord tail = runtime.decideColumns(
      region, names, reinterpret_cast<const char*>(warm.values.data()), rows,
      out);
  tail.run();
  const std::uint64_t explained = traced.session.explainRing().recorded();
  const std::uint64_t compiled = traced.counter("decision.compiled");

  const std::uint64_t before = allocationCount();
  tail = runtime.decideColumns(
      region, names, reinterpret_cast<const char*>(fresh.values.data()), rows,
      out);
  const std::uint64_t answered = allocationCount();
  EXPECT_EQ(traced.session.explainRing().recorded(), explained);
  tail.run();
  const std::uint64_t after = allocationCount();
  EXPECT_EQ(answered - before, 0u)
      << "traced full-miss decideColumns answer allocated "
      << (answered - before) << " times";
  EXPECT_EQ(after - answered, 0u)
      << "its record tail allocated " << (after - answered) << " times";
  EXPECT_EQ(traced.session.explainRing().recorded() - explained, rows);
  EXPECT_EQ(traced.counter("decision.compiled") - compiled, rows);
  EXPECT_EQ(runtime.decisionCacheStats(region).lookups, 0u);
  for (const Decision& decision : out) EXPECT_TRUE(decision.valid);
}

}  // namespace
}  // namespace osel::runtime
