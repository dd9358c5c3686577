// Pluggable scheduling-policy framework.
//
// Paper Section III-C explores "an approach using a combination of exact
// techniques and advanced heuristics" for the NP-hard mapping problem.
// Rather than hard-wiring that combination into one facade, every mapping
// strategy is a SchedulingPolicy registered under a stable name:
//
//  * "heft"                 — WCET-aware list scheduling (the workhorse).
//  * "branch_and_bound"     — exact makespan-optimal search for small
//                             graphs (sched/bnb.h).
//  * "annealed"             — HEFT seed refined by simulated annealing.
//  * "contention_oblivious" — interference-blind HEFT baseline
//                             (the parMERASA-style comparison).
//
// Policies are looked up by name (SchedOptions::policy) and run against a
// SchedContext — the precomputed facts every policy needs. The registry is
// a fixed table, sorted by name: a new policy is one detail:: function in
// its own translation unit under sched/, plus one row in the table in
// policy.cpp (docs/POLICY_AUTHORING.md).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sched/options.h"
#include "sched/schedule.h"

namespace argo::sched {

/// Read-only facts shared by every policy invocation: the graph with its
/// dependence adjacency, the platform, the per-task timing tables, and the
/// effective core count (SchedOptions::coreLimit already applied). All
/// references outlive the run() call; policies must treat them as
/// immutable (several policy runs may share them concurrently).
struct SchedContext {
  const htg::TaskGraph& graph;
  const adl::Platform& platform;
  const std::vector<TaskTiming>& timings;
  const std::vector<std::vector<int>>& succ;
  const std::vector<std::vector<int>>& pred;
  /// Cores actually available to this run: min(coreLimit, coreCount).
  int cores = 0;
};

/// One mapping strategy: its registry name and the function that runs it.
struct SchedulingPolicy {
  /// Stable registry name, also the default Schedule::policy label.
  std::string_view name;

  /// Computes a complete, valid schedule on the calling thread.
  /// Determinism contract: the result may depend only on `ctx` and
  /// `options` — never on thread count, wall-clock, or interleaving
  /// (docs/ARCHITECTURE.md).
  Schedule (*run)(const SchedContext& ctx, const SchedOptions& options);
};

/// Name lookup; nullptr when unknown. The returned pointer stays valid for
/// the process lifetime.
[[nodiscard]] const SchedulingPolicy* findPolicy(std::string_view name);

/// Like findPolicy, but throws a ToolchainError naming the unknown policy
/// and listing every registered name (the CLI surfaces this directly).
[[nodiscard]] const SchedulingPolicy& policyOrThrow(std::string_view name);

/// Sorted names of all registered policies.
[[nodiscard]] std::vector<std::string> registeredPolicyNames();

/// Resolves the CLIs' short aliases — "bnb" is "branch_and_bound",
/// "oblivious" is "contention_oblivious" — and returns any other name
/// verbatim. Unknown names are diagnosed later, by policyOrThrow.
[[nodiscard]] std::string resolvePolicyAlias(std::string_view name);

namespace detail {
// The registered policies' run functions (heft.cpp, bnb.cpp, annealed.cpp).
Schedule heft(const SchedContext& ctx, const SchedOptions& options);
Schedule contentionOblivious(const SchedContext& ctx,
                             const SchedOptions& options);
Schedule branchAndBound(const SchedContext& ctx, const SchedOptions& options);
Schedule annealed(const SchedContext& ctx, const SchedOptions& options);
}  // namespace detail

}  // namespace argo::sched
