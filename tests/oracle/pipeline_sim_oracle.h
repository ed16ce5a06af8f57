// osel/tests/oracle/pipeline_sim_oracle.h — the cycle-by-cycle MCA
// scheduling loop, kept only as the reference the differential tests diff
// mca::simulate and mca::renderTimeline against.
//
// This is the straightforward form of the loop: every simulated cycle
// retires, dispatches and scans the whole window, with a std::map lookup per
// issue attempt and one std::vector of producers per dynamic instruction,
// and the timeline keeps its own copy of the loop. It shares no code with
// the library's scheduler, so bit-identical results are evidence that the
// library's shortcuts (op models resolved once, flat producers, an
// index-range window, a list of the unissued instructions with their
// operand-ready cycles, idle-cycle skipping) leave the schedule unchanged.
#pragma once

#include <string>

#include "mca/machine_model.h"
#include "mca/minst.h"
#include "mca/pipeline_sim.h"

namespace osel::oracle {

/// Reference mca::simulate: same contract, same result.
[[nodiscard]] mca::SimResult simulate(const mca::MCProgram& program,
                                      const mca::MachineModel& model,
                                      int iterations);

/// Reference mca::renderTimeline: same contract, same text.
[[nodiscard]] std::string renderTimeline(const mca::MCProgram& program,
                                         const mca::MachineModel& model,
                                         int iterations, int maxCycles = 100);

}  // namespace osel::oracle
