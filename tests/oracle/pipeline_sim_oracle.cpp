// The loop bodies below are the library's scheduler as it stood before the
// scheduler kept its state in flat arrays and skipped idle cycles, copied
// unchanged; see pipeline_sim_oracle.h.
#include "oracle/pipeline_sim_oracle.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "support/check.h"

namespace osel::oracle {

using mca::kInvalidReg;
using mca::MachineModel;
using mca::MCProgram;
using mca::MInst;
using mca::MOp;
using mca::OpModel;
using mca::Reg;
using mca::SimResult;
using support::ensure;
using support::require;

namespace {

/// One dynamic (renamed) instruction instance.
struct DynInst {
  MOp op;
  // Indices of producing dynamic instructions; -1 means live-in/ready.
  std::vector<std::int64_t> producers;
};

/// Expands `iterations` renamed copies of the block, wiring loop-carried
/// registers to the previous iteration's defs.
std::vector<DynInst> expand(const MCProgram& program, int iterations) {
  std::vector<DynInst> dyn;
  dyn.reserve(program.insts.size() * static_cast<std::size_t>(iterations));
  // producer[staticReg] = index of the dynamic inst that most recently
  // defined it (-1 if never defined -> live-in).
  std::vector<std::int64_t> producer(static_cast<std::size_t>(program.regCount),
                                     -1);
  for (int iter = 0; iter < iterations; ++iter) {
    if (iter > 0) {
      // Loop-carried rotation: the live-in now reads last iteration's def.
      for (const auto& [liveIn, lastDef] : program.loopCarried)
        producer[static_cast<std::size_t>(liveIn)] =
            producer[static_cast<std::size_t>(lastDef)];
    }
    for (const MInst& inst : program.insts) {
      DynInst d;
      d.op = inst.op;
      d.producers.reserve(inst.srcs.size());
      for (const Reg src : inst.srcs)
        d.producers.push_back(producer[static_cast<std::size_t>(src)]);
      const auto index = static_cast<std::int64_t>(dyn.size());
      if (inst.dest != kInvalidReg)
        producer[static_cast<std::size_t>(inst.dest)] = index;
      dyn.push_back(std::move(d));
    }
  }
  return dyn;
}

/// Per-dynamic-instruction event times captured for the timeline view.
struct InstTimes {
  std::uint64_t dispatch = 0;
  std::uint64_t issue = 0;
  std::uint64_t complete = 0;
  std::uint64_t retire = 0;
};

}  // namespace

SimResult simulate(const MCProgram& program, const MachineModel& model,
                   int iterations) {
  require(iterations >= 1, "mca::simulate: iterations must be >= 1");
  require(!model.pipeNames.empty(), "mca::simulate: model has no pipes");

  SimResult result;
  result.iterations = iterations;
  result.pipePressure.assign(model.pipeNames.size(), 0.0);
  if (program.insts.empty()) return result;

  const std::vector<DynInst> dyn = expand(program, iterations);
  const std::size_t total = dyn.size();

  constexpr std::uint64_t kNotIssued = ~0ull;
  std::vector<std::uint64_t> issueCycle(total, kNotIssued);
  std::vector<std::uint64_t> readyResultCycle(total, 0);  // valid once issued
  std::vector<std::uint64_t> pipeBusyUntil(model.pipeNames.size(), 0);
  std::vector<std::uint64_t> pipeBusyCycles(model.pipeNames.size(), 0);

  // Window of dispatched-but-not-retired instruction indices (in order).
  std::deque<std::size_t> window;
  std::size_t nextToDispatch = 0;
  std::size_t retired = 0;
  std::uint64_t cycle = 0;
  std::uint64_t lastRetireCycle = 0;

  while (retired < total) {
    // Retire (in order, bounded width): an instruction retires once its
    // result is ready.
    int retiredThisCycle = 0;
    while (!window.empty() && retiredThisCycle < model.retireWidth) {
      const std::size_t head = window.front();
      if (issueCycle[head] == kNotIssued || readyResultCycle[head] > cycle) break;
      window.pop_front();
      ++retired;
      ++retiredThisCycle;
      lastRetireCycle = cycle;
    }

    // Dispatch into the window.
    int dispatched = 0;
    while (nextToDispatch < total && dispatched < model.dispatchWidth &&
           window.size() < static_cast<std::size_t>(model.windowSize)) {
      window.push_back(nextToDispatch++);
      ++dispatched;
    }

    // Issue: oldest-first scan of the window.
    for (const std::size_t index : window) {
      if (issueCycle[index] != kNotIssued) continue;
      const DynInst& inst = dyn[index];
      bool ready = true;
      for (const std::int64_t producerIndex : inst.producers) {
        if (producerIndex < 0) continue;
        const auto p = static_cast<std::size_t>(producerIndex);
        if (issueCycle[p] == kNotIssued || readyResultCycle[p] > cycle) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      const OpModel& op = model.opModel(inst.op);
      // Find a permitted pipe free this cycle.
      int chosenPipe = -1;
      for (std::size_t pipe = 0; pipe < model.pipeNames.size(); ++pipe) {
        if ((op.pipeMask & (1u << pipe)) == 0) continue;
        if (pipeBusyUntil[pipe] <= cycle) {
          chosenPipe = static_cast<int>(pipe);
          break;
        }
      }
      if (chosenPipe < 0) continue;  // structural hazard this cycle
      issueCycle[index] = cycle;
      readyResultCycle[index] = cycle + static_cast<std::uint64_t>(op.latency);
      pipeBusyUntil[static_cast<std::size_t>(chosenPipe)] =
          cycle + static_cast<std::uint64_t>(op.occupancy);
      pipeBusyCycles[static_cast<std::size_t>(chosenPipe)] +=
          static_cast<std::uint64_t>(op.occupancy);
    }

    ++cycle;
    ensure(cycle < (total + 16) * 512,
           "mca::simulate: no forward progress (model bug?)");
  }

  result.totalCycles = lastRetireCycle + 1;
  result.instructions = total;
  result.ipc = static_cast<double>(total) / static_cast<double>(result.totalCycles);
  result.averageCyclesPerIteration =
      static_cast<double>(result.totalCycles) / iterations;
  double best = -1.0;
  for (std::size_t pipe = 0; pipe < model.pipeNames.size(); ++pipe) {
    result.pipePressure[pipe] = static_cast<double>(pipeBusyCycles[pipe]) /
                                static_cast<double>(result.totalCycles);
    if (result.pipePressure[pipe] > best) {
      best = result.pipePressure[pipe];
      result.bottleneckPipe = model.pipeNames[pipe];
    }
  }
  return result;
}

std::string renderTimeline(const MCProgram& program, const MachineModel& model,
                           int iterations, int maxCycles) {
  require(iterations >= 1, "renderTimeline: iterations must be >= 1");
  require(maxCycles > 0, "renderTimeline: maxCycles must be positive");
  if (program.insts.empty()) return "(empty block)\n";

  // Re-run the scheduling loop, recording per-instruction event times.
  const std::vector<DynInst> dyn = expand(program, iterations);
  const std::size_t total = dyn.size();
  constexpr std::uint64_t kNotIssued = ~0ull;
  std::vector<std::uint64_t> issueCycle(total, kNotIssued);
  std::vector<std::uint64_t> readyResultCycle(total, 0);
  std::vector<std::uint64_t> pipeBusyUntil(model.pipeNames.size(), 0);
  std::vector<InstTimes> times(total);
  std::deque<std::size_t> window;
  std::size_t nextToDispatch = 0;
  std::size_t retired = 0;
  std::uint64_t cycle = 0;
  while (retired < total) {
    int retiredThisCycle = 0;
    while (!window.empty() && retiredThisCycle < model.retireWidth) {
      const std::size_t head = window.front();
      if (issueCycle[head] == kNotIssued || readyResultCycle[head] > cycle) break;
      times[head].retire = cycle;
      window.pop_front();
      ++retired;
      ++retiredThisCycle;
    }
    int dispatched = 0;
    while (nextToDispatch < total && dispatched < model.dispatchWidth &&
           window.size() < static_cast<std::size_t>(model.windowSize)) {
      times[nextToDispatch].dispatch = cycle;
      window.push_back(nextToDispatch++);
      ++dispatched;
    }
    for (const std::size_t index : window) {
      if (issueCycle[index] != kNotIssued) continue;
      const DynInst& inst = dyn[index];
      bool ready = true;
      for (const std::int64_t producerIndex : inst.producers) {
        if (producerIndex < 0) continue;
        const auto p = static_cast<std::size_t>(producerIndex);
        if (issueCycle[p] == kNotIssued || readyResultCycle[p] > cycle) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      const OpModel& op = model.opModel(inst.op);
      int chosenPipe = -1;
      for (std::size_t pipe = 0; pipe < model.pipeNames.size(); ++pipe) {
        if ((op.pipeMask & (1u << pipe)) == 0) continue;
        if (pipeBusyUntil[pipe] <= cycle) {
          chosenPipe = static_cast<int>(pipe);
          break;
        }
      }
      if (chosenPipe < 0) continue;
      issueCycle[index] = cycle;
      times[index].issue = cycle;
      readyResultCycle[index] = cycle + static_cast<std::uint64_t>(op.latency);
      times[index].complete = readyResultCycle[index];
      pipeBusyUntil[static_cast<std::size_t>(chosenPipe)] =
          cycle + static_cast<std::uint64_t>(op.occupancy);
    }
    ++cycle;
    ensure(cycle < (total + 16) * 512, "renderTimeline: no forward progress");
  }

  const auto lastCycle = std::min<std::uint64_t>(
      cycle, static_cast<std::uint64_t>(maxCycles));
  std::ostringstream out;
  out << "Timeline (cycles 0.." << lastCycle - 1 << "):\n";
  for (std::size_t i = 0; i < total; ++i) {
    const MInst& inst = program.insts[i % program.insts.size()];
    std::string row(static_cast<std::size_t>(lastCycle), '.');
    const auto mark = [&](std::uint64_t at, char symbol) {
      if (at < lastCycle) row[static_cast<std::size_t>(at)] = symbol;
    };
    for (std::uint64_t cyc = times[i].issue + 1; cyc < times[i].complete; ++cyc)
      mark(cyc, 'e');
    mark(times[i].dispatch, 'D');
    mark(times[i].complete, 'E');
    mark(times[i].retire, 'R');
    out << '[' << i / program.insts.size() << ',' << i % program.insts.size()
        << "]  " << row << "  " << inst.toString() << "\n";
  }
  return out.str();
}

}  // namespace osel::oracle
