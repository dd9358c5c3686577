// The "branch_and_bound" policy: exact makespan-optimal search (the
// paper's "exact technique", Section III-C), plus the task-cap constants
// other layers and the tests need.
//
// The search enumerates append-only schedules depth first: repeatedly pick
// a ready (all predecessors placed) task and a tile, in (task ascending,
// tile ascending) order, pruning with an admissible lower bound against
// the best complete schedule seen so far, and charging every visited node
// to SchedOptions::bnbNodeBudget. bnb.cpp states what it returns, and why
// an exact result does not depend on which admissible bound prunes it.
// Tiles indistinguishable at placement time are deduplicated, so the
// search is makespan-optimal up to that tile symmetry — exact outright on
// uniform-interconnect (bus) platforms; see the symmetry-breaking comment
// in bnb.cpp for the NoC caveat. Scheduled-task sets are tracked in a
// 32-bit mask, which caps the representable graph at kBnbMaxTasks tasks;
// beyond kBnbTaskLimit tasks the policy falls back to HEFT (label
// "branch_and_bound(fallback=heft)").
#pragma once

#include <cstddef>

namespace argo::sched {

/// Widest task set the bitmask-based exact search can represent. One bit
/// per task in a 32-bit mask, with the all-done mask `(1u << n) - 1`
/// needing n <= 31. This constant is the single owner of that fact;
/// nothing outside sched/ may hard-code 31.
inline constexpr int kBnbMaxTasks = 31;

/// Largest graph the exact search accepts before falling back to HEFT
/// (tasks). Beyond it the search is hopeless within any practical budget.
inline constexpr int kBnbTaskLimit = 14;
static_assert(kBnbTaskLimit <= kBnbMaxTasks,
              "the task cap must fit the search's bitmask");

/// True when the exact search runs for a graph of `tasks` tasks; false
/// when the policy would fall back to HEFT instead. Larger candidates are
/// still schedulable (by the fallback), so callers should not treat an
/// infeasible exact search as an infeasible candidate.
[[nodiscard]] constexpr bool bnbExactSearchFeasible(
    std::size_t tasks) noexcept {
  return tasks <= static_cast<std::size_t>(kBnbTaskLimit);
}

}  // namespace argo::sched
