#include "mca/pipeline_sim.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/check.h"
#include "support/format.h"

namespace osel::mca {

using support::ensure;
using support::require;

namespace {

/// Result-ready cycle of an instruction that has not issued yet.
constexpr std::uint64_t kNever = ~0ull;

/// The renamed dynamic instruction stream: `iterations` copies of the
/// block with every source resolved to the index of the dynamic instruction
/// that produces it. All sources sit in one flat array; dynamic instruction
/// i reads producers[begin[i], begin[i + 1]). A live-in source names the
/// slot one past the last instruction, whose result is ready at cycle 0.
struct DynStream {
  std::vector<std::size_t> producers;
  std::vector<std::size_t> begin;
};

/// Expands `iterations` renamed copies of the block, wiring loop-carried
/// registers to the previous iteration's defs.
DynStream expand(const MCProgram& program, int iterations) {
  const std::size_t total =
      program.insts.size() * static_cast<std::size_t>(iterations);
  const std::size_t liveIn = total;
  std::size_t srcsPerIteration = 0;
  for (const MInst& inst : program.insts) srcsPerIteration += inst.srcs.size();
  DynStream stream;
  stream.producers.reserve(srcsPerIteration *
                           static_cast<std::size_t>(iterations));
  stream.begin.reserve(total + 1);
  // producer[staticReg] = index of the dynamic inst that most recently
  // defined it (liveIn if never defined).
  std::vector<std::size_t> producer(static_cast<std::size_t>(program.regCount),
                                    liveIn);
  std::size_t index = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    if (iter > 0) {
      // Loop-carried rotation: the live-in now reads last iteration's def.
      for (const auto& [carried, lastDef] : program.loopCarried)
        producer[static_cast<std::size_t>(carried)] =
            producer[static_cast<std::size_t>(lastDef)];
    }
    for (const MInst& inst : program.insts) {
      stream.begin.push_back(stream.producers.size());
      for (const Reg src : inst.srcs)
        stream.producers.push_back(producer[static_cast<std::size_t>(src)]);
      if (inst.dest != kInvalidReg)
        producer[static_cast<std::size_t>(inst.dest)] = index;
      ++index;
    }
  }
  stream.begin.push_back(stream.producers.size());
  return stream;
}

/// What a finished schedule reports back to SimResult.
struct Schedule {
  std::uint64_t lastRetireCycle = 0;
  /// Cycles each pipe spent busy (same order as MachineModel::pipeNames).
  std::vector<std::uint64_t> pipeBusyCycles;
};

/// The event sink simulate() passes: records nothing.
struct NoEvents {
  void dispatched(std::size_t, std::uint64_t) {}
  void issued(std::size_t, std::uint64_t, std::uint64_t) {}
  void retired(std::size_t, std::uint64_t) {}
};

/// A dispatched instruction that has not issued yet.
struct Waiting {
  std::size_t index;
  const OpModel* op;
  /// Cycle every operand is ready: the latest of its producers'
  /// result-ready cycles, kNever while one of them has not issued.
  std::uint64_t operandsReady;
  /// While operandsReady is kNever: the producer found unissued last time
  /// (the live-in slot before the first look), so a waiting instruction
  /// rereads its producers only once that one has issued.
  std::size_t blockedOn;
};

/// Schedules `iterations` renamed copies of `program` on `model`, one cycle
/// at a time: in-order retire (up to retireWidth), in-order dispatch (up to
/// dispatchWidth) into a windowSize window, then an oldest-first issue scan
/// that sends each waiting instruction whose operands are ready to the
/// first free pipe it may use. `events` sees every dispatch, issue (with its
/// result-ready cycle) and retire. A cycle in which nothing retires,
/// dispatches or issues is followed directly by the earliest cycle at which
/// the head's result, a waiting instruction's operands or a pipe become
/// ready: every test above is a threshold on one of those times, so the
/// cycles in between would do nothing either. Throws InvariantError with
/// `stallMessage` when no instruction can ever make progress.
template <typename Events>
Schedule schedule(const MCProgram& program, const MachineModel& model,
                  int iterations, const char* stallMessage, Events& events) {
  const std::size_t blockSize = program.insts.size();
  std::vector<const OpModel*> opOf(blockSize);
  for (std::size_t s = 0; s < blockSize; ++s)
    opOf[s] = &model.opModel(program.insts[s].op);
  const DynStream stream = expand(program, iterations);
  const std::size_t total = blockSize * static_cast<std::size_t>(iterations);
  const std::size_t pipes = model.pipeNames.size();

  // readyAt[i]: cycle instruction i's result is ready, kNever until it
  // issues; readyAt[total] is the always-ready live-in slot.
  std::vector<std::uint64_t> readyAt(total + 1, kNever);
  readyAt[total] = 0;
  std::vector<std::uint64_t> pipeBusyUntil(pipes, 0);
  Schedule done;
  done.pipeBusyCycles.assign(pipes, 0);

  // Dispatch and retire are both in order, so the window is the index
  // range [retired, dispatched); `waiting` holds its unissued part, oldest
  // first.
  const auto windowSize = static_cast<std::size_t>(model.windowSize);
  std::vector<Waiting> waiting;
  waiting.reserve(std::min(total, windowSize));
  std::size_t retired = 0;
  std::size_t dispatched = 0;
  std::size_t dispatchSlot = 0;  // dispatched % blockSize
  std::uint64_t cycle = 0;
  const std::uint64_t cycleLimit = (total + 16) * 512;

  while (retired < total) {
    // Retire: the head leaves once its result is ready.
    int retiredNow = 0;
    while (retired < dispatched && retiredNow < model.retireWidth &&
           readyAt[retired] <= cycle) {
      events.retired(retired, cycle);
      done.lastRetireCycle = cycle;
      ++retired;
      ++retiredNow;
    }

    // Dispatch into the window.
    int dispatchedNow = 0;
    while (dispatched < total && dispatchedNow < model.dispatchWidth &&
           dispatched - retired < windowSize) {
      events.dispatched(dispatched, cycle);
      waiting.push_back({dispatched, opOf[dispatchSlot], kNever, total});
      dispatchSlot = (dispatchSlot + 1 == blockSize) ? 0 : dispatchSlot + 1;
      ++dispatched;
      ++dispatchedNow;
    }

    // Issue: oldest-first scan of the waiting instructions; the ones that
    // stay are compacted to the front in order.
    std::size_t kept = 0;
    for (Waiting& inst : waiting) {
      if (inst.operandsReady == kNever && readyAt[inst.blockedOn] != kNever) {
        // A producer's readyAt is final once it issues, so the maximum is
        // too once every producer has issued.
        std::uint64_t ready = 0;
        for (std::size_t k = stream.begin[inst.index];
             k < stream.begin[inst.index + 1]; ++k) {
          const std::size_t producer = stream.producers[k];
          if (readyAt[producer] == kNever) {
            inst.blockedOn = producer;
            ready = kNever;
            break;
          }
          ready = std::max(ready, readyAt[producer]);
        }
        inst.operandsReady = ready;
      }
      std::size_t pipe = pipes;
      if (inst.operandsReady <= cycle) {
        pipe = 0;
        while (pipe < pipes && ((inst.op->pipeMask & (1u << pipe)) == 0 ||
                                pipeBusyUntil[pipe] > cycle))
          ++pipe;
      }
      if (pipe == pipes) {  // operands or a pipe not ready this cycle
        waiting[kept++] = inst;
        continue;
      }
      const OpModel& op = *inst.op;
      readyAt[inst.index] = cycle + static_cast<std::uint64_t>(op.latency);
      pipeBusyUntil[pipe] = cycle + static_cast<std::uint64_t>(op.occupancy);
      done.pipeBusyCycles[pipe] += static_cast<std::uint64_t>(op.occupancy);
      events.issued(inst.index, cycle, readyAt[inst.index]);
    }
    const bool issuedNow = kept < waiting.size();
    waiting.resize(kept);

    if (retiredNow == 0 && dispatchedNow == 0 && !issuedNow) {
      // Idle: jump to the next of those times (kNever, and so the error
      // below, when there is none).
      std::uint64_t next = kNever;
      const auto consider = [&](std::uint64_t at) {
        if (at > cycle) next = std::min(next, at);
      };
      if (retired < dispatched) consider(readyAt[retired]);
      for (const Waiting& inst : waiting) consider(inst.operandsReady);
      for (const std::uint64_t busyUntil : pipeBusyUntil) consider(busyUntil);
      cycle = next;
    } else {
      ++cycle;
    }
    ensure(cycle < cycleLimit, stallMessage);
  }
  return done;
}

/// Per-dynamic-instruction event times captured for the timeline view.
struct InstTimes {
  std::uint64_t dispatch = 0;
  std::uint64_t issue = 0;
  std::uint64_t complete = 0;
  std::uint64_t retire = 0;
};

/// The event sink renderTimeline() passes: records every instruction's
/// event times.
struct TimelineEvents {
  std::vector<InstTimes> times;

  void dispatched(std::size_t i, std::uint64_t cycle) {
    times[i].dispatch = cycle;
  }
  void issued(std::size_t i, std::uint64_t cycle, std::uint64_t ready) {
    times[i].issue = cycle;
    times[i].complete = ready;
  }
  void retired(std::size_t i, std::uint64_t cycle) { times[i].retire = cycle; }
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

  NoEvents events;
  const Schedule done =
      schedule(program, model, iterations,
               "mca::simulate: no forward progress (model bug?)", events);
  const std::size_t total =
      program.insts.size() * static_cast<std::size_t>(iterations);

  result.totalCycles = done.lastRetireCycle + 1;
  result.instructions = total;
  result.ipc =
      static_cast<double>(total) / static_cast<double>(result.totalCycles);
  result.averageCyclesPerIteration =
      static_cast<double>(result.totalCycles) / iterations;
  double best = -1.0;
  for (std::size_t pipe = 0; pipe < model.pipeNames.size(); ++pipe) {
    result.pipePressure[pipe] = static_cast<double>(done.pipeBusyCycles[pipe]) /
                                static_cast<double>(result.totalCycles);
    if (result.pipePressure[pipe] > best) {
      best = result.pipePressure[pipe];
      result.bottleneckPipe = model.pipeNames[pipe];
    }
  }
  return result;
}

double steadyStateCyclesPerIteration(const MCProgram& program,
                                     const MachineModel& model, int iterations) {
  require(iterations >= 2, "steadyStateCyclesPerIteration: need >= 2 iterations");
  if (program.insts.empty()) return 0.0;
  const SimResult one = simulate(program, model, 1);
  const SimResult many = simulate(program, model, iterations);
  const double marginal =
      static_cast<double>(many.totalCycles - one.totalCycles) /
      static_cast<double>(iterations - 1);
  // Never report below the single-iteration bound scaled by perfect overlap:
  // the marginal estimate can only be distorted downward by rounding.
  return std::max(marginal, 0.0);
}

std::string renderTimeline(const MCProgram& program, const MachineModel& model,
                           int iterations, int maxCycles) {
  require(iterations >= 1, "renderTimeline: iterations must be >= 1");
  require(maxCycles > 0, "renderTimeline: maxCycles must be positive");
  if (program.insts.empty()) return "(empty block)\n";

  const std::size_t total =
      program.insts.size() * static_cast<std::size_t>(iterations);
  TimelineEvents events;
  events.times.resize(total);
  const Schedule done = schedule(program, model, iterations,
                                 "renderTimeline: no forward progress", events);
  const std::vector<InstTimes>& times = events.times;

  const auto lastCycle = std::min<std::uint64_t>(
      done.lastRetireCycle + 1, static_cast<std::uint64_t>(maxCycles));
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

std::string renderReport(const SimResult& result, const MachineModel& model) {
  std::ostringstream out;
  out << "Target:            " << model.name << "\n";
  out << "Iterations:        " << result.iterations << "\n";
  out << "Instructions:      " << result.instructions << "\n";
  out << "Total Cycles:      " << result.totalCycles << "\n";
  out << "IPC:               " << support::formatFixed(result.ipc, 2) << "\n";
  out << "Cycles/Iteration:  "
      << support::formatFixed(result.averageCyclesPerIteration, 2) << "\n\n";
  out << "Resource pressure by pipe:\n";
  for (std::size_t pipe = 0; pipe < model.pipeNames.size(); ++pipe) {
    out << "  " << model.pipeNames[pipe] << "  "
        << support::formatPercent(result.pipePressure[pipe]);
    if (model.pipeNames[pipe] == result.bottleneckPipe) out << "  <- bottleneck";
    out << "\n";
  }
  return out.str();
}

}  // namespace osel::mca
