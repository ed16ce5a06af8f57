// Infrastructure micro-benchmarks: throughput of the building blocks the
// simulators and analyses lean on. Useful for keeping the framework fast
// enough that the evaluation harness stays interactive.
#include <benchmark/benchmark.h>

#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ipda/ipda.h"
#include "ir/interpreter.h"
#include "mca/lowering.h"
#include "mca/pipeline_sim.h"
#include "polybench/polybench.h"
#include "support/cache_sim.h"
#include "support/rng.h"
#include "symbolic/compiled_expr.h"
#include "symbolic/expr.h"

namespace {

using namespace osel;
using namespace osel::ir;

void BM_ExprPolynomialArithmetic(benchmark::State& state) {
  const symbolic::Expr a =
      symbolic::Expr::symbol("n") * symbolic::Expr::symbol("i") +
      symbolic::Expr::symbol("j");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.differenceIn("i"));
  }
}
BENCHMARK(BM_ExprPolynomialArithmetic);

void BM_CompiledExprEvaluate(benchmark::State& state) {
  symbolic::SlotMap slots;
  const symbolic::CompiledExpr expr(
      symbolic::Expr::symbol("n") * symbolic::Expr::symbol("i") +
          symbolic::Expr::symbol("j"),
      slots);
  std::array<std::int64_t, 3> values{9600, 123, 456};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.evaluate(values));
    values[1] = (values[1] + 1) & 1023;
  }
}
BENCHMARK(BM_CompiledExprEvaluate);

TargetRegion gemmRegion() {
  return RegionBuilder("gemm")
      .param("n")
      .array("A", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("B", ScalarType::F32, {sym("n"), sym("n")}, Transfer::To)
      .array("C", ScalarType::F32, {sym("n"), sym("n")}, Transfer::From)
      .parallelFor("i", sym("n"))
      .parallelFor("j", sym("n"))
      .statement(Stmt::assign("acc", num(0.0)))
      .statement(Stmt::seqLoop(
          "k", cst(0), sym("n"),
          {Stmt::assign("acc", local("acc") + read("A", {sym("i"), sym("k")}) *
                                                  read("B", {sym("k"), sym("j")}))}))
      .statement(Stmt::store("C", {sym("i"), sym("j")}, local("acc")))
      .build();
}

void BM_InterpreterGemmPoint(benchmark::State& state) {
  // Events per second of the functional interpreter: one GEMM parallel
  // iteration with a 256-deep reduction loop (~1.3k events).
  const TargetRegion region = gemmRegion();
  const symbolic::Bindings bindings{{"n", 256}};
  ArrayStore store = allocateArrays(region, bindings);
  const CompiledRegion compiled(region, bindings);
  ExecutionContext context = compiled.makeContext(store);
  std::int64_t point = 0;
  for (auto _ : state) {
    compiled.runPoint(context, point);
    point = (point + 1) % compiled.flatTripCount();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InterpreterGemmPoint);

void BM_CacheSimAccess(benchmark::State& state) {
  support::SetAssociativeCache cache(6 * 1024 * 1024, 16, 32);
  support::SplitMix64 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(static_cast<std::int64_t>(rng.nextBelow(1u << 26))));
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_McaSteadyState(benchmark::State& state) {
  const TargetRegion region = gemmRegion();
  const mca::MCProgram body =
      mca::lowerLoopBody(region, region.body[1].loopBody(), "k");
  const mca::MachineModel model = mca::MachineModel::power9();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mca::steadyStateCyclesPerIteration(body, model, 32));
  }
}
BENCHMARK(BM_McaSteadyState);

// The compile half of a service start: compileAll over every Polybench
// region. Arg 1 compiles for POWER9 alone (the ledger's in-process stack),
// arg 2 for POWER9 + POWER8 (oseld's host models). Timed in real time:
// compileAll fans the regions out over threads, and the calling thread's
// CPU time would leave the workers' share out.
void BM_CompileAllSuite(benchmark::State& state) {
  std::vector<TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite())
    for (const TargetRegion& kernel : benchmark.kernels())
      regions.push_back(kernel);
  std::vector<mca::MachineModel> hosts{mca::MachineModel::power9()};
  if (state.range(0) == 2) hosts.push_back(mca::MachineModel::power8());
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compileAll(regions, hosts));
  }
}
BENCHMARK(BM_CompileAllSuite)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_IpdaAnalyzeGemm(benchmark::State& state) {
  const TargetRegion region = gemmRegion();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipda::Analysis::analyze(region));
  }
}
BENCHMARK(BM_IpdaAnalyzeGemm);

}  // namespace

BENCHMARK_MAIN();
