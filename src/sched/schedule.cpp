#include "sched/schedule.h"

#include <algorithm>
#include <map>

namespace argo::sched {

std::vector<TaskTiming> computeTaskTimings(const htg::TaskGraph& graph,
                                           const adl::Platform& platform,
                                           int) {
  const ir::Function& fn = *graph.fn;
  // One TimingModel per tile, built once up front. Every task is analyzed
  // on every tile (O(tasks x tiles) schema walks — identical tiles are
  // *not* deduplicated).
  std::vector<wcet::TimingModel> models;
  models.reserve(static_cast<std::size_t>(platform.coreCount()));
  for (int t = 0; t < platform.coreCount(); ++t) {
    models.push_back(wcet::TimingModel::forTile(platform, t));
  }

  std::vector<TaskTiming> timings;
  timings.reserve(graph.tasks.size());
  for (const htg::Task& task : graph.tasks) {
    TaskTiming& timing = timings.emplace_back();
    timing.wcetByTile.resize(static_cast<std::size_t>(platform.coreCount()));
    for (int t = 0; t < platform.coreCount(); ++t) {
      wcet::SchemaAnalyzer analyzer(fn, models[static_cast<std::size_t>(t)]);
      wcet::WcetResult result;
      for (const ir::StmtPtr& s : task.stmts) result += analyzer.analyzeStmt(*s);
      timing.wcetByTile[static_cast<std::size_t>(t)] = result.cycles;
      // Shared access counts are structural, identical on every tile; take
      // them from the first.
      if (t == 0) timing.sharedAccesses = result.sharedAccesses;
    }
  }
  return timings;
}

Cycles commCost(const adl::Platform& platform, const htg::Dep& dep,
                int fromTile, int toTile) {
  if (fromTile == toTile) return 0;
  return platform.transferWorstCase(dep.bytes, fromTile, toTile,
                                    /*contenders=*/1);
}

std::vector<std::string> validateSchedule(
    const Schedule& schedule, const htg::TaskGraph& graph,
    const adl::Platform& platform, const std::vector<TaskTiming>& timings) {
  std::vector<std::string> problems;
  const std::size_t n = graph.tasks.size();
  if (schedule.placements.size() != n) {
    problems.push_back("placement count mismatch");
    return problems;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Placement& p = schedule.placements[i];
    if (p.task != static_cast<int>(i)) {
      problems.push_back("placement " + std::to_string(i) + " misindexed");
    }
    if (p.tile < 0 || p.tile >= platform.coreCount()) {
      problems.push_back("task " + std::to_string(i) + " on invalid tile");
      continue;
    }
    const Cycles wcet =
        timings[i].wcetByTile[static_cast<std::size_t>(p.tile)];
    if (p.finish - p.start < wcet) {
      problems.push_back("task " + std::to_string(i) +
                         " shorter than its WCET");
    }
  }
  // Per-tile exclusivity.
  for (int t = 0; t < platform.coreCount(); ++t) {
    std::vector<const Placement*> onTile;
    for (const Placement& p : schedule.placements) {
      if (p.tile == t) onTile.push_back(&p);
    }
    std::sort(onTile.begin(), onTile.end(),
              [](const Placement* a, const Placement* b) {
                return a->start < b->start;
              });
    for (std::size_t k = 1; k < onTile.size(); ++k) {
      if (onTile[k]->start < onTile[k - 1]->finish) {
        problems.push_back("tasks " + std::to_string(onTile[k - 1]->task) +
                           " and " + std::to_string(onTile[k]->task) +
                           " overlap on tile " + std::to_string(t));
      }
    }
  }
  // Dependences.
  for (const htg::Dep& dep : graph.deps) {
    const Placement& from = schedule.placements[static_cast<std::size_t>(dep.from)];
    const Placement& to = schedule.placements[static_cast<std::size_t>(dep.to)];
    const Cycles comm = commCost(platform, dep, from.tile, to.tile);
    if (from.finish + comm > to.start) {
      problems.push_back("dependence " + std::to_string(dep.from) + "->" +
                         std::to_string(dep.to) + " violated");
    }
  }
  return problems;
}

}  // namespace argo::sched
