// osel/runtime/policy/model_compare.h — the extracted status-quo rule.
#pragma once

#include "runtime/policy/policy.h"

namespace osel::runtime::policy {

/// The paper's selection rule, verbatim: run on the GPU iff its predicted
/// total time is strictly lower than the CPU's. Stateless; the selector
/// devirtualizes this kind (OffloadSelector::resolveChoice inlines the
/// compare when the configured policy is ModelCompare), so the refactor
/// adds zero overhead over the seed choice tail — pinned by
/// BM_PolicyChoice and the test_policy bit-identity grid.
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
