// bench/common/policy_flag.h — the shared `--policy NAME` surface of the
// bench harnesses.
//
// Two policy namespaces meet at this flag: the launch-path Policy enum
// (always-cpu / always-gpu / model-guided / oracle — which devices actually
// execute) and the selection-policy layer (model-compare / calibrated —
// how the model-guided choice is made; see docs/POLICIES.md). Benches that
// launch accept the union: a selection-policy name implies the ModelGuided
// launch policy with that selection policy installed in the selector.
// Decide-only benches accept only the selection-policy names.
//
// Every consumer shares one parser so the accepted spellings and the
// exit-code contract (unknown name -> diagnostic on stderr, caller exits 2)
// cannot drift between binaries.
#pragma once

#include <memory>
#include <optional>

#include "runtime/policy/policy.h"
#include "runtime/target_runtime.h"
#include "support/cli.h"

namespace osel::bench {

/// What --policy resolved to.
struct PolicySelection {
  /// The launch-path policy (ModelGuided unless a launch-policy name was
  /// given and allowed).
  runtime::Policy launch = runtime::Policy::ModelGuided;
  /// The selection policy to install in SelectorConfig::policy; null keeps
  /// the selector default (ModelCompare).
  std::shared_ptr<runtime::policy::SelectionPolicy> selection;
};

/// Parses the --policy flag of `cl`. `allowLaunchPolicies` admits the
/// launch-policy names next to the selection-policy names (benches that
/// only decide pass false). An absent flag yields the defaults. An unknown
/// name prints `<tool>: unknown --policy ...` listing every accepted
/// spelling and returns nullopt — the caller exits 2.
[[nodiscard]] std::optional<PolicySelection> parsePolicyFlag(
    const support::CommandLine& cl, const char* tool,
    bool allowLaunchPolicies);

}  // namespace osel::bench
