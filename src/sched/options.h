// Options shared by every scheduling/mapping policy.
//
// The policy itself is selected by registry name (see sched/policy.h and
// docs/POLICY_AUTHORING.md), so the option set is the union of what the
// built-in policies consume; each policy reads the fields it documents and
// ignores the rest. Custom registered policies receive the same struct.
#pragma once

#include <cstdint>
#include <string>

namespace argo::sched {

struct SchedOptions {
  /// Registry name of the policy to run (sched/policy.h; default "heft").
  /// Built-ins: "heft", "branch_and_bound", "annealed",
  /// "contention_oblivious". Unknown names make Scheduler::run throw a
  /// ToolchainError that lists the registered names.
  std::string policy = "heft";
  /// Include interference estimates in the scheduling objective (default
  /// true; the "contention_oblivious" baseline is selected by name, but
  /// callers — argo_cc, argo_eval — also turn this off for it).
  bool interferenceAware = true;
  /// Restrict scheduling to the first `coreLimit` tiles (tiles, default
  /// 0; <= 0 means all tiles). The feedback loop uses 1 for its
  /// sequential-mapping fallback candidate.
  int coreLimit = 0;
  /// Branch-and-bound search budget: every node the one depth-first
  /// search visits, leaf, pruned or expanded (search nodes, default
  /// 2'000'000). Exhaustion is deterministic — the result is annotated
  /// "(budget)" and falls back to the HEFT seed when nothing better was
  /// explored.
  std::int64_t bnbNodeBudget = 2'000'000;
  /// Simulated-annealing chain length (iterations, default 4000).
  int saIterations = 4000;
  /// Seed for every randomized policy; the only sanctioned randomness
  /// source under the determinism contract (unitless, default 1).
  std::uint64_t seed = 1;
  /// Ignored and unkeyed; ROADMAP item 2's benchmark-only change deletes it.
  int parallelThreads = 1;
};

}  // namespace argo::sched
