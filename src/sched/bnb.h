// The "branch_and_bound" policy: exact makespan-optimal search (the
// paper's "exact technique", Section III-C), plus the public constants and
// accounting helpers other layers and the tests need.
//
// The search enumerates append-only schedules: repeatedly pick a ready
// (all predecessors placed) task and a tile, in (task ascending, tile
// ascending) order, pruning with an admissible lower bound against the
// best complete schedule seen so far. Tiles indistinguishable at placement
// time are deduplicated, so the search is makespan-optimal up to that tile
// symmetry — exact outright on uniform-interconnect (bus) platforms; see
// the symmetry-breaking comment in bnb.cpp for the NoC caveat.
// Scheduled-task sets are tracked in a
// 32-bit mask, which caps the representable graph at kBnbMaxTasks tasks;
// beyond min(kBnbMaxTasks, SchedOptions::bnbTaskLimit) the policy falls
// back to HEFT (label "branch_and_bound(fallback=heft)").
//
// When SchedOptions::bnbFrontierDepth > 0 the search splits at that depth
// into subtrees, each with its own share of the node budget, searched one
// after another on the calling thread and pruned against the best
// makespan recorded so far. The returned schedule is bit-identical to the
// classic monolithic DFS for every frontier depth as long as the node
// budget is not exhausted — the proof lives in bnb.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/options.h"

namespace argo::sched {

/// Widest task set the bitmask-based exact search can represent. One bit
/// per task in a 32-bit mask, with the all-done mask `(1u << n) - 1`
/// needing n <= 31. This constant is the single owner of that fact;
/// nothing outside sched/ may hard-code 31.
inline constexpr int kBnbMaxTasks = 31;

/// Task cap actually applied by the policy: the configured bnbTaskLimit,
/// never above what the bitmask can represent.
[[nodiscard]] constexpr int bnbEffectiveTaskLimit(
    const SchedOptions& options) noexcept {
  return options.bnbTaskLimit < kBnbMaxTasks ? options.bnbTaskLimit
                                             : kBnbMaxTasks;
}

/// True when the exact search runs for a graph of `tasks` tasks; false
/// when the policy would fall back to HEFT instead. Larger candidates are
/// still schedulable (by the fallback), so callers should not treat an
/// infeasible exact search as an infeasible candidate.
[[nodiscard]] constexpr bool bnbExactSearchFeasible(
    std::size_t tasks, const SchedOptions& options) noexcept {
  return tasks <= static_cast<std::size_t>(bnbEffectiveTaskLimit(options));
}

/// Deterministic split of the node budget that remains after frontier
/// generation over `subtrees` subtree searches: even shares, with the
/// remainder going to the lowest subtree indices. The shares sum exactly
/// to max(remaining, 0), so total work stays bounded by
/// SchedOptions::bnbNodeBudget however the search is split. Exposed for
/// the budget-accounting tests.
[[nodiscard]] std::vector<std::int64_t> bnbSplitNodeBudget(
    std::int64_t remaining, std::size_t subtrees);

}  // namespace argo::sched
