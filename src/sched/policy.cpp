#include "sched/policy.h"

#include <algorithm>
#include <array>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::sched {

using support::ToolchainError;

namespace {

/// Every policy, sorted by name: one row per detail:: run function.
constexpr std::array kPolicies{
    SchedulingPolicy{"annealed", detail::annealed},
    SchedulingPolicy{"branch_and_bound", detail::branchAndBound},
    SchedulingPolicy{"contention_oblivious", detail::contentionOblivious},
    SchedulingPolicy{"heft", detail::heft},
};
static_assert(std::adjacent_find(kPolicies.begin(), kPolicies.end(),
                                 [](const SchedulingPolicy& a,
                                    const SchedulingPolicy& b) {
                                   return a.name >= b.name;
                                 }) == kPolicies.end(),
              "the policy table must be sorted by name, without repeats");

}  // namespace

const SchedulingPolicy* findPolicy(std::string_view name) {
  for (const SchedulingPolicy& policy : kPolicies) {
    if (policy.name == name) return &policy;
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
  names.reserve(kPolicies.size());
  for (const SchedulingPolicy& policy : kPolicies) {
    names.emplace_back(policy.name);
  }
  return names;
}

std::string resolvePolicyAlias(std::string_view name) {
  if (name == "bnb") return "branch_and_bound";
  if (name == "oblivious") return "contention_oblivious";
  return std::string(name);
}

}  // namespace argo::sched
