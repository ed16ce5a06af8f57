#include "compiler/compiler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "ipda/ipda.h"
#include "ir/cost_walk.h"
#include "ir/traversal.h"
#include "mca/lowering.h"
#include "mca/pipeline_sim.h"
#include "support/check.h"

namespace osel::compiler {

using support::require;

namespace {

/// Recursive MCA composition over the body structure: straight-line code at
/// each level is priced by its steady-state pipeline cost, sequential loops
/// multiply their body's cost by the assumed trip count, conditionals
/// average their arms.
class McaComposer {
 public:
  McaComposer(const ir::TargetRegion& region, const mca::MachineModel& model,
              const CompileOptions& options)
      : region_(region), model_(model), options_(options) {}

  [[nodiscard]] double costOf(const std::vector<ir::Stmt>& body,
                              const std::string& loopVar = "") const {
    // Partition the level into straight-line statements and control flow.
    std::vector<ir::Stmt> straight;
    double cycles = 0.0;
    for (const ir::Stmt& stmt : body) {
      switch (stmt.kind()) {
        case ir::Stmt::Kind::Assign:
        case ir::Stmt::Kind::Store:
          straight.push_back(stmt);
          break;
        case ir::Stmt::Kind::SeqLoop:
          cycles += options_.assumedLoopTrips *
                    costOf(stmt.loopBody(), stmt.loopVar());
          break;
        case ir::Stmt::Kind::If: {
          const mca::MCProgram cond =
              mca::lowerCondition(region_, stmt.condition());
          cycles += steadyState(cond);
          cycles += options_.assumedBranchProbability * costOf(stmt.thenBody());
          cycles +=
              (1.0 - options_.assumedBranchProbability) * costOf(stmt.elseBody());
          break;
        }
      }
    }
    if (!straight.empty()) {
      const mca::MCProgram program =
          loopVar.empty()
              ? mca::lowerStraightLine(region_, straight)
              : mca::lowerLoopBody(region_, straight, loopVar);
      cycles += steadyState(program);
    }
    return cycles;
  }

 private:
  [[nodiscard]] double steadyState(const mca::MCProgram& program) const {
    if (program.insts.empty()) return 0.0;
    return mca::steadyStateCyclesPerIteration(program, model_,
                                              options_.mcaIterations);
  }

  const ir::TargetRegion& region_;
  const mca::MachineModel& model_;
  const CompileOptions& options_;
};

}  // namespace

double machineCyclesPerIteration(const ir::TargetRegion& region,
                                 const mca::MachineModel& model,
                                 const CompileOptions& options) {
  region.verify();
  return McaComposer(region, model, options).costOf(region.body);
}

pad::RegionAttributes analyzeRegion(const ir::TargetRegion& region,
                                    std::span<const mca::MachineModel> hostModels,
                                    const CompileOptions& options) {
  region.verify();
  pad::RegionAttributes attr;
  attr.regionName = region.name;
  attr.params = region.params;

  // --- Instruction loadout (paper §IV.B abstractions) ----------------------
  const ir::WalkPolicy policy{ir::WalkPolicy::TripMode::FixedAssumption,
                              options.assumedLoopTrips,
                              options.assumedBranchProbability};
  // Bindings are irrelevant under FixedAssumption loop trips, but parallel
  // extents must still resolve; bind every param to a nominal size.
  symbolic::Bindings nominal;
  for (const std::string& param : region.params)
    nominal[param] = static_cast<std::int64_t>(options.assumedLoopTrips);
  const ir::DynamicCounts loadout =
      ir::estimateDynamicCounts(region, nominal, policy);
  attr.compInstsPerIter = loadout.arithOps + loadout.compares;
  attr.specialInstsPerIter = loadout.specialOps;
  attr.loadInstsPerIter = loadout.loads;
  attr.storeInstsPerIter = loadout.stores;

  // FP64 share from the region's element types.
  std::size_t fp64Arrays = 0;
  double bytesTouched = 0.0;
  {
    const auto sites = ir::collectAccesses(region);
    require(sites.size() == loadout.siteCounts.size(),
            "analyzeRegion: site count mismatch");
    for (std::size_t i = 0; i < sites.size(); ++i) {
      bytesTouched += loadout.siteCounts[i] *
                      static_cast<double>(
                          ir::sizeOf(region.array(sites[i].array).elementType));
    }
  }
  for (const ir::ArrayDecl& decl : region.arrays) {
    if (decl.elementType == ir::ScalarType::F64 ||
        decl.elementType == ir::ScalarType::I64)
      ++fp64Arrays;
  }
  attr.fp64Fraction = region.arrays.empty()
                          ? 0.0
                          : static_cast<double>(fp64Arrays) /
                                static_cast<double>(region.arrays.size());
  attr.bytesTouchedPerIteration = bytesTouched;

  // --- MCA Machine_cycles_per_iter per host model ---------------------------
  // The region verified above; compose directly rather than through
  // machineCyclesPerIteration, which would verify it again per model.
  for (const mca::MachineModel& model : hostModels)
    attr.machineCyclesPerIter[model.name] =
        McaComposer(region, model, options).costOf(region.body);

  // --- IPDA stride records ---------------------------------------------------
  const ipda::Analysis analysis = ipda::Analysis::analyze(region);
  require(analysis.records().size() == loadout.siteCounts.size(),
          "analyzeRegion: IPDA site count mismatch");
  for (std::size_t i = 0; i < analysis.records().size(); ++i) {
    const ipda::StrideRecord& record = analysis.records()[i];
    pad::StrideAttribute stride;
    stride.stride = record.stride;
    stride.affine = record.affineInThreadVar;
    stride.isStore = record.site.isStore;
    stride.elementBytes = static_cast<std::int64_t>(record.elementBytes);
    stride.countPerIteration = loadout.siteCounts[i];
    attr.strides.push_back(std::move(stride));
  }

  // --- Symbolic runtime-completed expressions -------------------------------
  symbolic::Expr trips = symbolic::Expr::constant(1);
  for (const ir::ParallelDim& dim : region.parallelDims) trips *= dim.extent;
  attr.flatTripCount = trips;

  symbolic::Expr bytesTo;
  symbolic::Expr bytesFrom;
  for (const ir::ArrayDecl& decl : region.arrays) {
    symbolic::Expr bytes =
        symbolic::Expr::constant(static_cast<std::int64_t>(ir::sizeOf(decl.elementType)));
    for (const symbolic::Expr& extent : decl.extents) bytes *= extent;
    if (decl.transfer == ir::Transfer::To || decl.transfer == ir::Transfer::ToFrom)
      bytesTo += bytes;
    if (decl.transfer == ir::Transfer::From ||
        decl.transfer == ir::Transfer::ToFrom)
      bytesFrom += bytes;
  }
  attr.bytesToDevice = bytesTo;
  attr.bytesFromDevice = bytesFrom;
  return attr;
}

pad::AttributeDatabase compileAll(std::span<const ir::TargetRegion> regions,
                                  std::span<const mca::MachineModel> hostModels,
                                  const CompileOptions& options) {
  // Regions are analyzed independently, so workers claim them through one
  // atomic index. Each result or error lands in its region's slot, and the
  // database is filled in region order afterwards: the PAD, and the error
  // thrown, are the ones a serial loop over `regions` produces.
  std::vector<std::optional<pad::RegionAttributes>> results(regions.size());
  std::vector<std::exception_ptr> errors(regions.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < regions.size(); i = next++) {
      try {
        results[i] = analyzeRegion(regions[i], hostModels, options);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  // The calling thread is one of the workers, so one region starts no
  // thread. A helper that cannot be started is left out: the running
  // workers, the caller among them, drain the index.
  const std::size_t workers = std::min<std::size_t>(
      regions.size(), std::max(1U, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  helpers.reserve(workers);
  for (std::size_t t = 1; t < workers; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (...) {
      break;
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();

  pad::AttributeDatabase db;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    db.insert(std::move(*results[i]));
  }
  return db;
}

}  // namespace osel::compiler
