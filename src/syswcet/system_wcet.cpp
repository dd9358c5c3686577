#include "syswcet/system_wcet.h"

#include <algorithm>
#include <queue>

#include "support/diagnostics.h"

namespace argo::syswcet {

using support::ToolchainError;

namespace {

/// Task-level happens-before edges: per-tile task order plus
/// producer->consumer event edges (annotated with communicated bytes).
struct HbGraph {
  struct Edge {
    int to = 0;
    std::int64_t commBytes = 0;  // 0 for same-core program order
  };
  std::vector<std::vector<Edge>> succ;
  std::vector<std::vector<int>> pred;
};

HbGraph buildHb(const par::ParallelProgram& program) {
  const std::size_t n = program.graph->tasks.size();
  HbGraph hb;
  hb.succ.resize(n);
  hb.pred.resize(n);
  auto addEdge = [&](int from, int to, std::int64_t bytes) {
    hb.succ[static_cast<std::size_t>(from)].push_back({to, bytes});
    hb.pred[static_cast<std::size_t>(to)].push_back(from);
  };
  for (const std::vector<int>& order : program.schedule.tileOrder) {
    for (std::size_t k = 1; k < order.size(); ++k) {
      addEdge(order[k - 1], order[k], 0);
    }
  }
  for (const par::Event& e : program.events) {
    addEdge(e.producerTask, e.consumerTask, e.bytes);
  }
  return hb;
}

/// MHP matrix over `hb`: tasks i != j may happen in parallel iff neither
/// reaches the other. One breadth-first traversal per source task fills
/// that task's reachability row.
std::vector<std::vector<bool>> mhpMatrix(const HbGraph& hb) {
  const std::size_t n = hb.succ.size();
  // reachable[i][j]: i happens-before j.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    std::queue<int> frontier;
    frontier.push(static_cast<int>(i));
    while (!frontier.empty()) {
      const int t = frontier.front();
      frontier.pop();
      for (const HbGraph::Edge& e : hb.succ[static_cast<std::size_t>(t)]) {
        if (!reach[i][static_cast<std::size_t>(e.to)]) {
          reach[i][static_cast<std::size_t>(e.to)] = true;
          frontier.push(e.to);
        }
      }
    }
  }
  std::vector<std::vector<bool>> mhp(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      mhp[i][j] = i != j && !reach[i][j] && !reach[j][i];
    }
  }
  return mhp;
}

}  // namespace

std::vector<std::vector<bool>> mayHappenInParallel(
    const par::ParallelProgram& program) {
  return mhpMatrix(buildHb(program));
}

SystemWcet analyzeSystem(const par::ParallelProgram& program,
                         const adl::Platform& platform,
                         const std::vector<sched::TaskTiming>& timings,
                         InterferenceMethod method, int) {
  const std::size_t n = program.graph->tasks.size();
  if (timings.size() != n) {
    throw ToolchainError("system WCET: timing table size mismatch");
  }
  const HbGraph hb = buildHb(program);

  // Per task: its tile, and one sync flag access per wait and per signal.
  std::vector<int> tileOf(n);
  std::vector<int> syncOps(n);
  for (std::size_t i = 0; i < n; ++i) {
    tileOf[i] = program.schedule.placements[i].tile;
    syncOps[i] = static_cast<int>(program.waits[i].size() +
                                  program.signals[i].size());
  }

  SystemWcet result;
  result.tasks.assign(n, TaskBound{});

  std::vector<int> contenders(n, 1);
  if (method == InterferenceMethod::AllContenders) {
    contenders.assign(n, platform.coreCount());
  }

  // Topological order over HB (it is a DAG: per-core chains + schedule-
  // consistent event edges).
  std::vector<int> topo;
  {
    std::vector<int> indeg(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      indeg[i] = static_cast<int>(hb.pred[i].size());
    }
    std::vector<int> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) ready.push_back(static_cast<int>(i));
    }
    while (!ready.empty()) {
      const int t = ready.back();
      ready.pop_back();
      topo.push_back(t);
      for (const HbGraph::Edge& e : hb.succ[static_cast<std::size_t>(t)]) {
        if (--indeg[static_cast<std::size_t>(e.to)] == 0) ready.push_back(e.to);
      }
    }
    if (topo.size() != n) {
      throw ToolchainError("happens-before graph is cyclic (internal error)");
    }
  }

  // Contender counts from the MHP relation (structural, therefore sound
  // for any actual interleaving — window overlap would miss executions
  // that run earlier than their worst case): a task contends with every
  // distinct other tile hosting an MHP task that itself uses the
  // interconnect.
  if (method == InterferenceMethod::MhpRefined) {
    const std::vector<std::vector<bool>> mhp = mhpMatrix(hb);
    for (std::size_t i = 0; i < n; ++i) {
      if (timings[i].sharedAccesses == 0 && syncOps[i] == 0) continue;
      std::vector<bool> tileSeen(
          static_cast<std::size_t>(platform.coreCount()), false);
      int count = 1;
      for (std::size_t j = 0; j < n; ++j) {
        if (!mhp[i][j] || tileOf[j] == tileOf[i]) continue;
        if (tileSeen[static_cast<std::size_t>(tileOf[j])]) continue;
        const bool usesInterconnect =
            timings[j].sharedAccesses > 0 || syncOps[j] > 0;
        if (!usesInterconnect) continue;
        tileSeen[static_cast<std::size_t>(tileOf[j])] = true;
        ++count;
      }
      contenders[i] = count;
    }
  }

  // Durations under the (now fixed) contender counts.
  for (std::size_t i = 0; i < n; ++i) {
    const Cycles base =
        timings[i].wcetByTile[static_cast<std::size_t>(tileOf[i])];
    const Cycles extraPerAccess =
        platform.sharedAccessWorstCase(tileOf[i], contenders[i]) -
        platform.sharedAccessBase(tileOf[i]);
    // Sync flag accesses experience the same contention as data accesses.
    const Cycles interference =
        (timings[i].sharedAccesses + syncOps[i]) * extraPerAccess;
    const Cycles sync = static_cast<Cycles>(syncOps[i]) * program.syncOverhead;
    result.tasks[i].interference = interference;
    result.tasks[i].inflated = base + interference + sync;
    result.tasks[i].contenders = contenders[i];
  }

  // Worst-case windows by longest path over HB. Communication edges pay
  // the worst-case transfer cost under the producer's contender count.
  for (std::size_t i = 0; i < n; ++i) result.tasks[i].start = 0;
  for (int t : topo) {
    const std::size_t ti = static_cast<std::size_t>(t);
    result.tasks[ti].finish =
        result.tasks[ti].start + result.tasks[ti].inflated;
    for (const HbGraph::Edge& e : hb.succ[ti]) {
      Cycles arrival = result.tasks[ti].finish;
      if (e.commBytes > 0) {
        arrival += platform.transferWorstCase(
            e.commBytes, tileOf[ti],
            tileOf[static_cast<std::size_t>(e.to)], contenders[ti]);
      }
      auto& succStart = result.tasks[static_cast<std::size_t>(e.to)].start;
      succStart = std::max(succStart, arrival);
    }
  }

  for (const TaskBound& t : result.tasks) {
    result.makespan = std::max(result.makespan, t.finish);
  }
  return result;
}

}  // namespace argo::syswcet
