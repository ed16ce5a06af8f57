// Golden pins of the MCA schedule as the compiler consumes it:
// machineCyclesPerIteration for every Polybench suite region under POWER9,
// POWER8 and the scalar latency sum, at mcaIterations 2 and 32, as hex
// floats. Any change to the scheduler that moves a single cycle of any
// region's schedule moves one of these values.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "compiler/compiler.h"
#include "polybench/polybench.h"

namespace osel::compiler {
namespace {

/// One region's pins, in the order POWER9 x{2, 32}, POWER8 x{2, 32},
/// scalar-latency-sum x{2, 32}.
struct GoldenRow {
  const char* region;
  std::array<double, 6> cycles;
};

constexpr GoldenRow kGolden[] = {
    {"gemm_k1",
     {0x1.c08p+9, 0x1.c177bdef7bdefp+9, 0x1.808p+9, 0x1.8177bdef7bdefp+9,
      0x1.699p+12, 0x1.699p+12}},
    {"mvt_k1",
     {0x1.c08p+9, 0x1.c08p+9, 0x1.808p+9, 0x1.808p+9,
      0x1.10ap+12, 0x1.10ap+12}},
    {"mvt_k2",
     {0x1.c08p+9, 0x1.c08p+9, 0x1.808p+9, 0x1.808p+9,
      0x1.10ap+12, 0x1.10ap+12}},
    {"3mm_k1",
     {0x1.cp+9, 0x1.c0b9ce739ce74p+9, 0x1.8p+9, 0x1.80b9ce739ce74p+9,
      0x1.687p+12, 0x1.687p+12}},
    {"3mm_k2",
     {0x1.cp+9, 0x1.c0b9ce739ce74p+9, 0x1.8p+9, 0x1.80b9ce739ce74p+9,
      0x1.687p+12, 0x1.687p+12}},
    {"3mm_k3",
     {0x1.cp+9, 0x1.c0b9ce739ce74p+9, 0x1.8p+9, 0x1.80b9ce739ce74p+9,
      0x1.687p+12, 0x1.687p+12}},
    {"2mm_k1",
     {0x1.cp+9, 0x1.c0b9ce739ce74p+9, 0x1.8p+9, 0x1.80b9ce739ce74p+9,
      0x1.687p+12, 0x1.687p+12}},
    {"2mm_k2",
     {0x1.c08p+9, 0x1.c177bdef7bdefp+9, 0x1.808p+9, 0x1.8177bdef7bdefp+9,
      0x1.699p+12, 0x1.699p+12}},
    {"atax_k1",
     {0x1.cp+9, 0x1.c03def7bdef7cp+9, 0x1.8p+9, 0x1.803def7bdef7cp+9,
      0x1.103p+12, 0x1.103p+12}},
    {"atax_k2",
     {0x1.cp+9, 0x1.c03def7bdef7cp+9, 0x1.8p+9, 0x1.803def7bdef7cp+9,
      0x1.103p+12, 0x1.103p+12}},
    {"bicg_k1",
     {0x1.cp+9, 0x1.c03def7bdef7cp+9, 0x1.8p+9, 0x1.803def7bdef7cp+9,
      0x1.103p+12, 0x1.103p+12}},
    {"bicg_k2",
     {0x1.cp+9, 0x1.c03def7bdef7cp+9, 0x1.8p+9, 0x1.803def7bdef7cp+9,
      0x1.103p+12, 0x1.103p+12}},
    {"2dconv_k1",
     {0x1.4p+4, 0x1.2b9ce739ce73ap+5, 0x1.fp+4, 0x1.1eb5ad6b5ad6bp+5,
      0x1.dep+7, 0x1.dep+7}},
    {"3dconv_k1",
     {0x1.08p+13, 0x1.08p+13, 0x1.04p+13, 0x1.04p+13,
      0x1.8dp+15, 0x1.8dp+15}},
    {"covar_k1",
     {0x1.c08p+9, 0x1.c3e318c6318c6p+9, 0x1.808p+9, 0x1.8518c6318c632p+9,
      0x1.444p+11, 0x1.444p+11}},
    {"covar_k2",
     {0x1p+0, 0x1.b9ce739ce739dp+1, 0x1p+0, 0x1.b9ce739ce739dp+1,
      0x1p+5, 0x1p+5}},
    {"covar_k3",
     {0x1.c18p+16, 0x1.c1bdef7bdef7cp+16, 0x1.818p+16, 0x1.81bdef7bdef7cp+16,
      0x1.31p+19, 0x1.31p+19}},
    {"gesummv_k1",
     {0x1.c08p+9, 0x1.c0b9ce739ce74p+9, 0x1.808p+9, 0x1.a7f39ce739ce8p+9,
      0x1.08cp+13, 0x1.08cp+13}},
    {"syr2k_k1",
     {0x1.c04p+10, 0x1.c0bbdef7bdef8p+10, 0x1.804p+10, 0x1.80bbdef7bdef8p+10,
      0x1.60c8p+13, 0x1.60c8p+13}},
    {"syrk_k1",
     {0x1.c08p+9, 0x1.c177bdef7bdefp+9, 0x1.808p+9, 0x1.8177bdef7bdefp+9,
      0x1.699p+12, 0x1.699p+12}},
    {"corr_k1",
     {0x1.c08p+9, 0x1.c3e318c6318c6p+9, 0x1.808p+9, 0x1.8518c6318c632p+9,
      0x1.444p+11, 0x1.444p+11}},
    {"corr_k2",
     {0x1.c1p+9, 0x1.ca8p+9, 0x1.81p+9, 0x1.8ca94a5294a53p+9,
      0x1.4c9p+12, 0x1.4c9p+12}},
    {"corr_k3",
     {0x1.4p+2, 0x1.8084210842108p+4, 0x1.8p+2, 0x1.d108421084211p+4,
      0x1.c4p+6, 0x1.c4p+6}},
    {"corr_k4",
     {0x1.c181p+16, 0x1.c1bf6b5ad6b5bp+16, 0x1.8181p+16, 0x1.81bf6b5ad6b5bp+16,
      0x1.3100ep+19, 0x1.3100ep+19}},
};

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

TEST(McaGolden, MachineCyclesPerIterationIsPinnedForEverySuiteRegion) {
  const std::array<mca::MachineModel, 3> models{
      mca::MachineModel::power9(), mca::MachineModel::power8(),
      mca::MachineModel::scalarLatencySum()};
  std::size_t checked = 0;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& region : benchmark.kernels()) {
      const GoldenRow* row = nullptr;
      for (const GoldenRow& candidate : kGolden)
        if (region.name == candidate.region) row = &candidate;
      ASSERT_NE(row, nullptr) << "no golden row for " << region.name;
      std::size_t column = 0;
      for (const mca::MachineModel& model : models) {
        for (const int iterations : {2, 32}) {
          CompileOptions options;
          options.mcaIterations = iterations;
          EXPECT_EQ(hex(machineCyclesPerIteration(region, model, options)),
                    hex(row->cycles[column]))
              << region.name << " " << model.name << " x" << iterations;
          ++column;
        }
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace osel::compiler
