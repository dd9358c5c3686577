#include "sched/policy.h"

#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::sched {

using support::ToolchainError;

namespace {

/// Every policy, sorted by name: one row per detail::make* factory.
const std::vector<std::unique_ptr<SchedulingPolicy>>& policies() {
  static const std::vector<std::unique_ptr<SchedulingPolicy>> table = [] {
    std::vector<std::unique_ptr<SchedulingPolicy>> rows;
    for (auto factory : {detail::makeAnnealedPolicy, detail::makeBnbPolicy,
                         detail::makeContentionObliviousPolicy,
                         detail::makeHeftPolicy}) {
      rows.push_back(factory());
    }
    return rows;
  }();
  return table;
}

}  // namespace

const SchedulingPolicy* findPolicy(std::string_view name) {
  for (const std::unique_ptr<SchedulingPolicy>& policy : policies()) {
    if (policy->name() == name) return policy.get();
  }
  return nullptr;
}

const SchedulingPolicy& policyOrThrow(std::string_view name) {
  if (const SchedulingPolicy* policy = findPolicy(name)) return *policy;
  throw ToolchainError("unknown scheduling policy '" + std::string(name) +
                       "' (registered: " +
                       support::join(registeredPolicyNames(), ", ") + ")");
}

std::vector<std::string> registeredPolicyNames() {
  std::vector<std::string> names;
  names.reserve(policies().size());
  for (const std::unique_ptr<SchedulingPolicy>& policy : policies()) {
    names.emplace_back(policy->name());
  }
  return names;
}

std::string resolvePolicyAlias(std::string_view name) {
  if (name == "bnb") return "branch_and_bound";
  if (name == "oblivious") return "contention_oblivious";
  return std::string(name);
}

}  // namespace argo::sched
