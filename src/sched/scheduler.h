// WCET-aware scheduling and mapping: the Scheduler facade.
//
// Paper Section III-C: the mapping problem is NP-hard; ARGO explores "an
// approach using a combination of exact techniques and advanced
// heuristics". The strategies themselves are SchedulingPolicy rows — a
// name and a run function — selected by name (see sched/policy.h for the
// built-ins and the registry); this facade owns what every policy shares
// — the per-task timing tables (computed once) and the graph's dependence
// adjacency — and dispatches run() through the registry.
#pragma once

#include "sched/options.h"
#include "sched/policy.h"
#include "sched/schedule.h"

namespace argo::sched {

/// Facade over the policy registry: precomputes the SchedContext facts for
/// one (graph, platform) pair, then runs any policy against them.
class Scheduler {
 public:
  /// Runs the per-task timing analysis (computeTaskTimings) at
  /// construction.
  Scheduler(const htg::TaskGraph& graph, const adl::Platform& platform);

  /// Constructs with precomputed per-task timings instead of running the
  /// timing analysis. `timings` must be computeTaskTimings(graph,
  /// platform, ...) output for exactly this graph and platform — the
  /// stage cache (core/cache.h) uses this to feed a memoized timing
  /// vector into many schedule evaluations.
  Scheduler(const htg::TaskGraph& graph, const adl::Platform& platform,
            std::vector<TaskTiming> timings);

  /// Dispatches to the policy registered under `options.policy`. Throws
  /// ToolchainError for an empty graph or an unknown policy name (the
  /// error lists the registered names).
  [[nodiscard]] Schedule run(const SchedOptions& options) const;

  [[nodiscard]] const std::vector<TaskTiming>& timings() const noexcept {
    return timings_;
  }

 private:
  [[nodiscard]] int effectiveCores(const SchedOptions& options) const;

  const htg::TaskGraph& graph_;
  const adl::Platform& platform_;
  std::vector<TaskTiming> timings_;
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<int>> pred_;
};

}  // namespace argo::sched
