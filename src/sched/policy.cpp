#include "sched/policy.h"

#include <map>
#include <mutex>
#include <utility>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::sched {

using support::ToolchainError;

namespace {

struct Registry {
  std::mutex mutex;
  // Transparent comparator: lookups take string_view without allocating.
  std::map<std::string, std::unique_ptr<SchedulingPolicy>, std::less<>>
      policies;
};

/// The process-wide registry, seeded with the built-ins on first use
/// (function-local static: thread-safe initialization, no static-order
/// hazards between the policy translation units).
Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    for (auto factory : {detail::makeHeftPolicy,
                         detail::makeContentionObliviousPolicy,
                         detail::makeBnbPolicy, detail::makeAnnealedPolicy}) {
      std::unique_ptr<SchedulingPolicy> policy = factory();
      std::string name(policy->name());
      r->policies.emplace(std::move(name), std::move(policy));
    }
    return r;
  }();
  return *instance;
}

}  // namespace

void registerPolicy(std::unique_ptr<SchedulingPolicy> policy) {
  if (policy == nullptr) {
    throw ToolchainError("registerPolicy: null policy");
  }
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::string name(policy->name());
  if (name.empty()) {
    throw ToolchainError("registerPolicy: policy with empty name");
  }
  const auto [it, inserted] = r.policies.emplace(std::move(name),
                                                 std::move(policy));
  if (!inserted) {
    throw ToolchainError("registerPolicy: duplicate scheduling policy '" +
                         it->first + "'");
  }
}

const SchedulingPolicy* findPolicy(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.policies.find(name);
  return it == r.policies.end() ? nullptr : it->second.get();
}

const SchedulingPolicy& policyOrThrow(std::string_view name) {
  if (const SchedulingPolicy* policy = findPolicy(name)) return *policy;
  throw ToolchainError("unknown scheduling policy '" + std::string(name) +
                       "' (registered: " +
                       support::join(registeredPolicyNames(), ", ") + ")");
}

std::vector<std::string> registeredPolicyNames() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.policies.size());
  for (const auto& [name, policy] : r.policies) names.push_back(name);
  return names;  // std::map iteration: already sorted
}

std::string resolvePolicyAlias(std::string_view name) {
  if (name == "bnb") return "branch_and_bound";
  if (name == "oblivious") return "contention_oblivious";
  return std::string(name);
}

}  // namespace argo::sched
