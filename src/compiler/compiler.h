// osel/compiler/compiler.h — the "XL-like" compile-time half of the hybrid
// framework (paper Fig. 2).
//
// Given an outlined target region, the compiler:
//   1. runs the instruction loadout analysis — dynamic IR-instruction counts
//     per parallel iteration under the paper's abstractions (every loop runs
//     128 iterations, every branch is 50/50, §IV.B);
//   2. runs IPDA and stores each access's symbolic stride (§IV.C);
//   3. extracts the loop body and feeds it through the MCA pipeline
//     simulation for each registered host machine model, producing
//     Machine_cycles_per_iter for the CPU cost model (§IV.A.1);
//   4. derives the symbolic trip-count and transfer-size expressions the
//     runtime completes at launch;
//   5. deposits everything in the Program Attribute Database.
//
// Each region is analyzed on one thread; compileAll analyzes several
// regions at once and still fills the database in region order.
//
// The "two generated versions" of the region (CPU and GPU) share the kernel
// IR here; the simulators play the role of the two code paths.
#pragma once

#include <span>
#include <vector>

#include "ir/region.h"
#include "mca/machine_model.h"
#include "pad/attribute_db.h"

namespace osel::compiler {

/// Tunables of the static analyses (defaults = the paper's abstractions).
struct CompileOptions {
  double assumedLoopTrips = 128.0;
  double assumedBranchProbability = 0.5;
  /// Iterations used to reach MCA steady state.
  int mcaIterations = 32;
};

/// Runs all static analyses for `region` against every host model in
/// `hostModels` and returns the PAD entry. The region must verify.
[[nodiscard]] pad::RegionAttributes analyzeRegion(
    const ir::TargetRegion& region, std::span<const mca::MachineModel> hostModels,
    const CompileOptions& options = {});

/// Analyzes several regions into a fresh database, running analyzeRegion
/// on up to min(regions.size(), std::thread::hardware_concurrency())
/// threads, the caller among them (one region starts no thread). The
/// database is filled in region order, so it is the one a serial loop
/// builds, and when regions throw, the lowest-indexed failure is rethrown
/// after every thread has joined.
[[nodiscard]] pad::AttributeDatabase compileAll(
    std::span<const ir::TargetRegion> regions,
    std::span<const mca::MachineModel> hostModels,
    const CompileOptions& options = {});

/// The MCA composition rule by itself (exposed for tests and the MCA
/// ablation bench): cycles one thread spends on one parallel iteration of
/// `region` under `model`, composing steady-state block costs over the
/// loop/branch structure with the fixed-trip abstraction.
[[nodiscard]] double machineCyclesPerIteration(const ir::TargetRegion& region,
                                               const mca::MachineModel& model,
                                               const CompileOptions& options = {});

}  // namespace osel::compiler
