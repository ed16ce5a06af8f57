// osel/runtime/policy/model_compare.h — the extracted status-quo rule.
#pragma once

#include "runtime/policy/policy.h"

namespace osel::runtime::policy {

/// The paper's selection rule, verbatim: run on the GPU iff its predicted
/// total time is strictly lower than the CPU's. Stateless; the selector
/// calls it through the virtual choose() like any policy, once per fresh
/// row (cache hits never reach it). The test_policy grid pins the rule on
/// every decide path; BM_PolicyChoice times the tail.
class ModelComparePolicy final : public SelectionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::ModelCompare;
  }
  [[nodiscard]] PolicyChoice choose(const PolicyInputs& inputs) const override {
    return {inputs.gpuSeconds < inputs.cpuSeconds ? Device::Gpu : Device::Cpu};
  }
};

}  // namespace osel::runtime::policy
