#include "sched/scheduler.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace argo::sched {

using support::ToolchainError;

Scheduler::Scheduler(const htg::TaskGraph& graph, const adl::Platform& platform)
    : graph_(graph),
      platform_(platform),
      timings_(computeTaskTimings(graph, platform)),
      succ_(graph.successors()),
      pred_(graph.predecessors()) {}

Scheduler::Scheduler(const htg::TaskGraph& graph, const adl::Platform& platform,
                     std::vector<TaskTiming> timings)
    : graph_(graph),
      platform_(platform),
      timings_(std::move(timings)),
      succ_(graph.successors()),
      pred_(graph.predecessors()) {}

int Scheduler::effectiveCores(const SchedOptions& options) const {
  if (options.coreLimit <= 0) return platform_.coreCount();
  return std::min(options.coreLimit, platform_.coreCount());
}

Schedule Scheduler::run(const SchedOptions& options) const {
  if (graph_.tasks.empty()) {
    throw ToolchainError("scheduler: empty task graph");
  }
  const SchedContext ctx{graph_,  platform_, timings_,
                         succ_,   pred_,     effectiveCores(options)};
  return policyOrThrow(options.policy).run(ctx, options);
}

}  // namespace argo::sched
