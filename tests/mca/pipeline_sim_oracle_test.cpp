// Differential test of the MCA scheduler: mca::simulate and
// mca::renderTimeline against the cycle-by-cycle reference loop in
// tests/oracle, over seeded random blocks and a spread of machine models.
// Every SimResult field must match bit for bit and every timeline byte for
// byte, so the scheduler's shortcuts cannot change a schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mca/pipeline_sim.h"
#include "oracle/pipeline_sim_oracle.h"
#include "support/check.h"
#include "support/rng.h"

namespace osel::mca {
namespace {

constexpr MOp kAllOps[] = {MOp::FAdd, MOp::FMul,  MOp::FDiv, MOp::FSqrt,
                           MOp::FSpec, MOp::Load, MOp::Store, MOp::IAlu,
                           MOp::Cmp,  MOp::Branch};

/// A random block of 1-40 micro-ops over a few live-in registers: sources
/// may read live-ins, earlier defs, or registers the block defines later
/// (which read the previous iteration's def once replayed); some defs
/// redefine a register; 0-3 random loop-carried pairs.
MCProgram randomProgram(support::SplitMix64& rng) {
  MCProgram p;
  const Reg liveIns = static_cast<Reg>(rng.nextBelow(4));
  const int count = 1 + static_cast<int>(rng.nextBelow(40));
  // Registers the block may name: live-ins, then one fresh def per inst.
  const Reg regCount = liveIns + static_cast<Reg>(count);
  Reg next = liveIns;
  for (int i = 0; i < count; ++i) {
    MInst inst;
    inst.op = kAllOps[rng.nextBelow(std::size(kAllOps))];
    const int numSrcs = static_cast<int>(rng.nextBelow(4));
    for (int s = 0; s < numSrcs; ++s) {
      // Mostly backward references; one in eight may name any register.
      const Reg bound = rng.nextBelow(8) == 0 ? regCount : next;
      if (bound == 0) continue;
      inst.srcs.push_back(
          static_cast<Reg>(rng.nextBelow(static_cast<std::uint64_t>(bound))));
    }
    if (inst.op == MOp::Store || inst.op == MOp::Branch) {
      inst.dest = kInvalidReg;
    } else if (next > liveIns && rng.nextBelow(6) == 0) {
      inst.dest = liveIns + static_cast<Reg>(rng.nextBelow(
                                static_cast<std::uint64_t>(next - liveIns)));
    } else {
      inst.dest = next++;
    }
    p.insts.push_back(std::move(inst));
  }
  p.regCount = regCount;
  const int pairs = static_cast<int>(rng.nextBelow(4));
  for (int i = 0; i < pairs; ++i) {
    const auto liveIn = static_cast<Reg>(
        rng.nextBelow(static_cast<std::uint64_t>(regCount)));
    const auto lastDef = static_cast<Reg>(
        rng.nextBelow(static_cast<std::uint64_t>(regCount)));
    p.loopCarried.emplace_back(liveIn, lastDef);
  }
  return p;
}

/// Dispatch 1, a four-entry window and one pipe that every op occupies for
/// more than a cycle: structural and window stalls dominate.
MachineModel narrowModel() {
  MachineModel m;
  m.name = "narrow";
  m.dispatchWidth = 1;
  m.windowSize = 4;
  m.retireWidth = 1;
  m.pipeNames = {"P0"};
  m.ops = {
      {MOp::FAdd, {4, 1, 2}},   {MOp::FMul, {5, 1, 2}},
      {MOp::FDiv, {20, 1, 9}},  {MOp::FSqrt, {24, 1, 11}},
      {MOp::FSpec, {30, 1, 13}}, {MOp::Load, {3, 1, 2}},
      {MOp::Store, {1, 1, 2}},  {MOp::IAlu, {1, 1, 2}},
      {MOp::Cmp, {1, 1, 3}},    {MOp::Branch, {1, 1, 2}},
  };
  return m;
}

/// A seeded model with random widths, 1-3 pipes and random op tables
/// (every op can run on at least one pipe).
MachineModel randomModel(support::SplitMix64& rng) {
  MachineModel m;
  m.name = "random";
  m.dispatchWidth = 1 + static_cast<int>(rng.nextBelow(6));
  m.windowSize = 1 + static_cast<int>(rng.nextBelow(24));
  m.retireWidth = 1 + static_cast<int>(rng.nextBelow(6));
  const int pipes = 1 + static_cast<int>(rng.nextBelow(3));
  for (int p = 0; p < pipes; ++p) {
    std::string name = "P";
    name += std::to_string(p);
    m.pipeNames.push_back(std::move(name));
  }
  const std::uint32_t all = (1u << pipes) - 1;
  for (const MOp op : kAllOps) {
    OpModel entry;
    entry.latency = 1 + static_cast<int>(rng.nextBelow(12));
    entry.pipeMask = 1 + static_cast<std::uint32_t>(rng.nextBelow(all));
    entry.occupancy = 1 + static_cast<int>(rng.nextBelow(4));
    m.ops[op] = entry;
  }
  return m;
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

void expectSameResult(const SimResult& got, const SimResult& want,
                      const std::string& where) {
  EXPECT_EQ(got.totalCycles, want.totalCycles) << where;
  EXPECT_EQ(got.instructions, want.instructions) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(hex(got.ipc), hex(want.ipc)) << where;
  EXPECT_EQ(hex(got.averageCyclesPerIteration),
            hex(want.averageCyclesPerIteration))
      << where;
  ASSERT_EQ(got.pipePressure.size(), want.pipePressure.size()) << where;
  for (std::size_t pipe = 0; pipe < got.pipePressure.size(); ++pipe)
    EXPECT_EQ(hex(got.pipePressure[pipe]), hex(want.pipePressure[pipe]))
        << where << " pipe " << pipe;
  EXPECT_EQ(got.bottleneckPipe, want.bottleneckPipe) << where;
}

class McaOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McaOracle, SimulateAndTimelineMatchTheReferenceLoop) {
  support::SplitMix64 rng(GetParam() * 0x9E3779B97F4A7C15ULL + 17);
  const MCProgram program = randomProgram(rng);
  const std::vector<MachineModel> models = {
      MachineModel::power9(), MachineModel::power8(),
      MachineModel::scalarLatencySum(), narrowModel(), randomModel(rng)};
  for (const MachineModel& model : models) {
    for (const int iterations : {1, 2, 7, 32}) {
      const std::string where = model.name + " x" + std::to_string(iterations) +
                                "\n" + program.toString();
      expectSameResult(simulate(program, model, iterations),
                       oracle::simulate(program, model, iterations), where);
      EXPECT_EQ(renderTimeline(program, model, iterations),
                oracle::renderTimeline(program, model, iterations))
          << where;
      if (iterations <= 7) {
        EXPECT_EQ(renderTimeline(program, model, iterations, 4096),
                  oracle::renderTimeline(program, model, iterations, 4096))
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McaOracle,
                         ::testing::Range<std::uint64_t>(0, 200));

TEST(McaOracleEdges, EmptyBlockMatches) {
  for (const MachineModel& model : {MachineModel::power9(),
                                    MachineModel::scalarLatencySum(),
                                    narrowModel()}) {
    expectSameResult(simulate(MCProgram{}, model, 3),
                     oracle::simulate(MCProgram{}, model, 3), model.name);
    EXPECT_EQ(renderTimeline(MCProgram{}, model, 3),
              oracle::renderTimeline(MCProgram{}, model, 3));
  }
}

TEST(McaOracleEdges, UnissuableOpStallsBothInTheSameError) {
  // FDiv may run on no pipe: neither loop can make progress.
  MachineModel model = narrowModel();
  model.ops[MOp::FDiv].pipeMask = 0;
  MCProgram program;
  program.insts = {MInst{MOp::FAdd, 1, {0}}, MInst{MOp::FDiv, 2, {1}}};
  program.regCount = 3;
  EXPECT_THROW((void)simulate(program, model, 2), support::InvariantError);
  EXPECT_THROW((void)oracle::simulate(program, model, 2),
               support::InvariantError);
  EXPECT_THROW((void)renderTimeline(program, model, 2),
               support::InvariantError);
  EXPECT_THROW((void)oracle::renderTimeline(program, model, 2),
               support::InvariantError);
}

TEST(McaOracleEdges, MissingOpThrowsPreconditionInBoth) {
  MachineModel model = narrowModel();
  model.ops.erase(MOp::FSqrt);
  MCProgram program;
  program.insts = {MInst{MOp::FAdd, 1, {0}}, MInst{MOp::FSqrt, 2, {1}}};
  program.regCount = 3;
  EXPECT_THROW((void)simulate(program, model, 2), support::PreconditionError);
  EXPECT_THROW((void)oracle::simulate(program, model, 2),
               support::PreconditionError);
  EXPECT_THROW((void)renderTimeline(program, model, 2),
               support::PreconditionError);
  EXPECT_THROW((void)oracle::renderTimeline(program, model, 2),
               support::PreconditionError);
}

}  // namespace
}  // namespace osel::mca
