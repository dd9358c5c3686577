// Shared list-scheduling machinery (internal to sched/).
//
// Every built-in policy is, at its core, a strategy for ordering tasks and
// picking tiles on top of the same greedy placement mechanics: HEFT and
// the contention-oblivious baseline place by earliest finish time, the
// annealer re-places fixed tile assignments, and branch-and-bound reuses
// the communication table and seeds its incumbent with a HEFT schedule.
// This header is that common substrate; it is not part of the public
// sched/ API.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/policy.h"

namespace argo::sched::detail {

/// Dense communication-cost table, built once per policy run: for every
/// dependence edge, commCost() of each (producer tile, consumer tile)
/// pair over all platform.coreCount() tiles, so no placement or search
/// loop calls Platform::transferWorstCase. Edges are grouped by consumer
/// in graph.deps order, which is exactly the order of ctx.pred (expand()
/// never emits a duplicate (from, to) pair): slot j of `task` is the edge
/// from ctx.pred[task][j].
class CommTable {
 public:
  explicit CommTable(const SchedContext& ctx);

  /// Costs of the edge ctx.pred[task][j] -> task with the producer on
  /// `fromTile`, indexed by the consumer's tile.
  [[nodiscard]] const Cycles* predRow(int task, std::size_t j,
                                      int fromTile) const noexcept {
    const std::size_t slot = predBegin_[static_cast<std::size_t>(task)] + j;
    return &costs_[(slot * tiles_ + static_cast<std::size_t>(fromTile)) *
                   tiles_];
  }

 private:
  std::size_t tiles_ = 0;
  std::vector<std::size_t> predBegin_;  ///< first slot per task
  std::vector<Cycles> costs_;           ///< [slot][fromTile][toTile]
};

/// Upward ranks: rank(t) = avgWcet(t) + max over successors of
/// (avgComm(edge) + rank(succ)). A task never ranks below a successor,
/// and ties go to the lower id, which is the predecessor's
/// (htg::TaskGraph::deps), so priorityOrder is a topological order.
[[nodiscard]] std::vector<double> upwardRanks(const SchedContext& ctx,
                                              const CommTable& comm);

/// Task ids by decreasing rank; ties broken by lower task id.
[[nodiscard]] std::vector<int> priorityOrder(const std::vector<double>& rank);

/// Shared state of the greedy list-scheduling placement loop.
class ListPlacer {
 public:
  ListPlacer(const SchedContext& ctx, const CommTable& comm,
             bool interferenceAware);

  /// Earliest start of `task` on `tile` given already-placed predecessors.
  [[nodiscard]] Cycles earliestStart(int task, int tile) const;

  [[nodiscard]] Cycles baseCost(int task, int tile) const {
    return ctx_.timings[static_cast<std::size_t>(task)]
        .wcetByTile[static_cast<std::size_t>(tile)];
  }

  /// Cost of `task` on `tile` starting at `start`, including the
  /// interference estimate when enabled.
  [[nodiscard]] Cycles placedCost(int task, int tile, Cycles start) const;

  void place(int task, int tile, Cycles start, Cycles cost);

  /// Forgets every placement, then places every task of `order` (a
  /// topological order) on its tile in `tileOf` at its earliest start.
  /// Returns the makespan. The placer's buffers are reused, so repeated
  /// calls allocate nothing after the first.
  Cycles placeAssignment(const std::vector<int>& order,
                         const std::vector<int>& tileOf);

  [[nodiscard]] Schedule finish(std::string policy) const;

 private:
  const SchedContext& ctx_;
  const CommTable& comm_;
  bool interferenceAware_;
  std::vector<Placement> placements_;
  std::vector<Cycles> tileAvail_;
  std::vector<std::vector<int>> tileOrder_;
  Cycles makespan_ = 0;
};

/// Full HEFT pass: upward-rank priority, earliest-finish-time placement.
/// The heart of the "heft" policy, the seed of "annealed" and
/// "branch_and_bound", and (with interferenceAware = false) the
/// "contention_oblivious" baseline.
[[nodiscard]] Schedule listSchedule(const SchedContext& ctx,
                                    const CommTable& comm,
                                    bool interferenceAware,
                                    std::string policyLabel);

}  // namespace argo::sched::detail
