#include "runtime/policy/policy.h"

#include "runtime/policy/calibrated.h"
#include "runtime/policy/model_compare.h"

namespace osel::runtime::policy {

std::string_view toString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::ModelCompare:
      return "model-compare";
    case PolicyKind::Calibrated:
      return "calibrated";
  }
  return "?";
}

std::optional<PolicyKind> parsePolicyKind(std::string_view name) {
  if (name == "model-compare") return PolicyKind::ModelCompare;
  if (name == "calibrated") return PolicyKind::Calibrated;
  return std::nullopt;
}

std::string policyKindNames() { return "model-compare, calibrated"; }

std::shared_ptr<SelectionPolicy> makePolicy(const PolicyOptions& options) {
  switch (options.kind) {
    case PolicyKind::Calibrated:
      return std::make_shared<CalibratedPolicy>(options);
    case PolicyKind::ModelCompare:
      break;
  }
  return std::make_shared<ModelComparePolicy>();
}

}  // namespace osel::runtime::policy
