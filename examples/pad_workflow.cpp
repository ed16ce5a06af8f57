// pad_workflow — the paper's Fig. 2 compile/run split, end to end.
//
// Phase 1 ("the compiler"): analyze kernels, write the Program Attribute
// Database to disk. Phase 2 ("the OpenMP runtime", possibly a different
// process on a different day): load the PAD, bind launch-time values, and
// decide — *without ever seeing the kernel IR*. This is the property that
// makes the hybrid approach production-deployable: the runtime needs only
// the database and the runtime values.
//
// Build & run:  ./build/examples/pad_workflow [--pad /tmp/suite.pad]
#include <array>
#include <cstdio>

#include "compiler/compiler.h"
#include "polybench/polybench.h"
#include "runtime/selector.h"
#include "support/cli.h"
#include "support/format.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace osel;
  const auto cl = support::CommandLine::parse(argc, argv);
  const std::string padPath =
      cl.stringOption("pad").value_or("/tmp/osel_suite.pad");

  // ---- Phase 1: compile time ----------------------------------------------
  {
    std::vector<ir::TargetRegion> regions;
    for (const polybench::Benchmark& benchmark : polybench::suite()) {
      for (const auto& kernel : benchmark.kernels()) regions.push_back(kernel);
    }
    const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                                 mca::MachineModel::power8()};
    const pad::AttributeDatabase db = compiler::compileAll(regions, hosts);
    db.saveToFile(padPath);
    std::printf("phase 1 (compiler): analyzed %zu regions -> %s\n",
                db.size(), padPath.c_str());
  }

  // ---- Phase 2: launch time (no IR in sight) -------------------------------
  const pad::AttributeDatabase db = pad::AttributeDatabase::loadFromFile(padPath);
  std::printf("phase 2 (runtime): loaded %zu PAD entries\n\n", db.size());

  const runtime::OffloadSelector selector{runtime::SelectorConfig{}};
  support::TextTable table(
      {"Kernel", "n=256", "n=1100", "n=9600", "stride resolution"});
  for (const char* name : {"gemm_k1", "atax_k2", "mvt_k1", "corr_k4"}) {
    const pad::RegionAttributes& attr = db.at(name);
    const runtime::CompiledRegionPlan plan = selector.compile(attr);
    std::vector<std::string> row{name};
    for (const std::int64_t n : {256, 1100, 9600}) {
      const runtime::Decision decision = selector.decide(plan, {{"n", n}});
      row.push_back(runtime::toString(decision.device) + " (" +
                    support::formatSpeedup(decision.predictedSpeedup()) + ")");
    }
    // Show one stored symbolic stride resolving under runtime values.
    std::string strideText = "-";
    for (const auto& stride : attr.strides) {
      if (stride.affine && !stride.stride.isConstant()) {
        strideText = stride.stride.toString() + " -> " +
                     std::to_string(stride.stride.substituteAll({{"n", 9600}})
                                        .tryConstant()
                                        .value_or(-1));
        break;
      }
    }
    row.push_back(strideText);
    table.addRow(std::move(row));
  }
  std::fputs(table.render(2).c_str(), stdout);
  std::printf("\nSame database, different runtime values, different devices —\n"
              "the decision is recomputed per launch in microseconds.\n");
  return 0;
}
