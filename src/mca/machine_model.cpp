#include "mca/machine_model.h"

#include "support/check.h"

namespace osel::mca {

using support::require;

std::string toString(MOp op) {
  switch (op) {
    case MOp::FAdd:
      return "fadd";
    case MOp::FMul:
      return "fmul";
    case MOp::FDiv:
      return "fdiv";
    case MOp::FSqrt:
      return "fsqrt";
    case MOp::FSpec:
      return "fspec";
    case MOp::Load:
      return "load";
    case MOp::Store:
      return "store";
    case MOp::IAlu:
      return "ialu";
    case MOp::Cmp:
      return "cmp";
    case MOp::Branch:
      return "br";
  }
  return "?";
}

std::string MInst::toString() const {
  std::string out = osel::mca::toString(op);
  if (dest != kInvalidReg) {
    out += " r";
    out += std::to_string(dest);
  }
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    out += (i == 0 && dest == kInvalidReg) ? " r" : ", r";
    out += std::to_string(srcs[i]);
  }
  return out;
}

std::string MCProgram::toString() const {
  std::string out;
  for (const MInst& inst : insts) {
    out += "  ";
    out += inst.toString();
    out += '\n';
  }
  return out;
}

const OpModel& MachineModel::opModel(MOp op) const {
  const auto it = ops.find(op);
  if (it == ops.end()) {
    require(false, "MachineModel " + name + ": no entry for op " +
                       osel::mca::toString(op));
  }
  return it->second;
}

namespace {

// Pipe indices shared by the POWER models.
constexpr std::uint32_t kLsu = 0b0000011;   // LSU0, LSU1
constexpr std::uint32_t kVsu = 0b0001100;   // VSU0, VSU1 (FP/vector-scalar)
constexpr std::uint32_t kFxu = 0b0110000;   // FXU0, FXU1 (fixed point)
constexpr std::uint32_t kBru = 0b1000000;   // BR

std::vector<std::string> powerPipes() {
  return {"LSU0", "LSU1", "VSU0", "VSU1", "FXU0", "FXU1", "BR"};
}

}  // namespace

MachineModel MachineModel::power9() {
  MachineModel m;
  m.name = "POWER9";
  m.dispatchWidth = 6;
  m.windowSize = 64;
  m.retireWidth = 6;
  m.pipeNames = powerPipes();
  m.ops = {
      {MOp::FAdd, {7, kVsu, 1}},
      {MOp::FMul, {7, kVsu, 1}},
      {MOp::FDiv, {27, kVsu, 16}},
      {MOp::FSqrt, {36, kVsu, 26}},
      {MOp::FSpec, {60, kVsu, 40}},
      {MOp::Load, {5, kLsu, 1}},   // L1-hit load-to-use; no cache model
      {MOp::Store, {1, kLsu, 1}},
      {MOp::IAlu, {2, kFxu, 1}},
      {MOp::Cmp, {2, kFxu, 1}},
      {MOp::Branch, {1, kBru, 1}},
  };
  return m;
}

MachineModel MachineModel::power8() {
  MachineModel m;
  m.name = "POWER8";
  m.dispatchWidth = 6;
  m.windowSize = 48;
  m.retireWidth = 6;
  m.pipeNames = powerPipes();
  m.ops = {
      {MOp::FAdd, {6, kVsu, 1}},
      {MOp::FMul, {6, kVsu, 1}},
      {MOp::FDiv, {33, kVsu, 21}},
      {MOp::FSqrt, {42, kVsu, 30}},
      {MOp::FSpec, {70, kVsu, 48}},
      {MOp::Load, {4, kLsu, 1}},
      {MOp::Store, {1, kLsu, 1}},
      {MOp::IAlu, {2, kFxu, 1}},
      {MOp::Cmp, {2, kFxu, 1}},
      {MOp::Branch, {1, kBru, 1}},
  };
  return m;
}

MachineModel MachineModel::scalarLatencySum() {
  MachineModel m;
  m.name = "scalar-latency-sum";
  m.dispatchWidth = 1;
  m.windowSize = 1;
  m.retireWidth = 1;
  m.pipeNames = {"P0"};
  // Occupancy equals latency: with a single pipe and a one-entry window,
  // total cycles collapse to the sum of latencies — the naive estimator the
  // MCA integration (paper §IV.A.1) replaces.
  m.ops = {
      {MOp::FAdd, {7, 1, 7}},   {MOp::FMul, {7, 1, 7}},
      {MOp::FDiv, {27, 1, 27}}, {MOp::FSqrt, {36, 1, 36}},
      {MOp::FSpec, {60, 1, 60}}, {MOp::Load, {5, 1, 5}},
      {MOp::Store, {1, 1, 1}},  {MOp::IAlu, {2, 1, 2}},
      {MOp::Cmp, {2, 1, 2}},    {MOp::Branch, {1, 1, 1}},
  };
  return m;
}

}  // namespace osel::mca
