#include "sched/bnb.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sched/list_placement.h"
#include "sched/policy.h"
#include "support/metrics.h"

namespace argo::sched {

namespace {

// ---------------------------------------------------------------------------
// What the search returns
// ---------------------------------------------------------------------------
//
// One depth-first search over append-only schedules, in place on one
// frame. A node's children are generated in (task ascending, tile
// ascending) order, keeping those whose makespan stays below the
// incumbent at that moment, and visited newest first. A node is pruned
// when its admissible lower bound reaches the incumbent, and a complete
// schedule replaces the incumbent only when it is strictly shorter; the
// incumbent starts as the HEFT seed. The result is therefore the first
// complete schedule, in visit order, that attains the optimum (or the
// seed when nothing beats it). Two facts make that result safe to keep
// across changes to the bound:
//
//  1. An admissible bound never cuts the path to the first optimal
//     schedule: every node on that path has a completion at the optimum,
//     so its bound and its own makespan are at most the optimum, and until
//     that schedule is recorded the incumbent is above the optimum (when
//     the optimum beats the seed at all). Neither the bound check nor the
//     child filter can cut the path, so exact results do not depend on
//     which admissible bound prunes.
//
//  2. A stronger admissible bound visits a subsequence of a weaker one's
//     nodes, in the same order. A node only the stronger bound prunes has
//     no completion below the incumbent, so the weaker search records
//     nothing in its subtree, and both searches leave it with the same
//     incumbent and go on to the same next node. At a fixed budget the
//     stronger search has therefore seen at least as much of the weaker
//     one's visit order: its result is never worse, and it never runs out
//     of budget more often.
//
// Every visited node (leaf, pruned or expanded) costs one unit of
// SchedOptions::bnbNodeBudget. A search that runs out reports policy
// "branch_and_bound(budget)" and keeps its incumbent, which is valid and
// never worse than the seed. The goldens in tests/bnb_test.cpp pin both
// the exact results and the budget-cut visit order.
// ---------------------------------------------------------------------------

support::MetricCounter& nodesCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.bnb.nodes");
  return counter;
}

support::MetricCounter& budgetExhaustedCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter(
          "sched.bnb.budget_exhausted");
  return counter;
}

/// Immutable per-search facts.
struct SearchContext {
  const SchedContext& ctx;
  const detail::CommTable& comm;
  std::vector<Cycles> cp;    ///< remaining critical path per task
  std::vector<Cycles> minW;  ///< min WCET over tiles per task
  std::vector<std::uint32_t> predMask;  ///< predecessors of each task
  std::size_t n = 0;
  std::uint32_t allDone = 0;
};

/// One node of the search tree: a partial append-only schedule.
struct Frame {
  std::vector<Placement> placements;
  std::vector<Cycles> tileAvail;
  std::uint32_t done = 0;  ///< bitmask of scheduled tasks
  Cycles makespan = 0;
  Cycles workLeft = 0;

  /// What apply() overwrites beyond what undo() can recompute.
  struct Saved {
    Cycles tileAvail;
    Cycles makespan;
  };

  Saved apply(const Placement& move, Cycles minWork) {
    const std::size_t tile = static_cast<std::size_t>(move.tile);
    const Saved saved{tileAvail[tile], makespan};
    placements[static_cast<std::size_t>(move.task)] = move;
    tileAvail[tile] = move.finish;
    done |= 1u << move.task;
    makespan = std::max(makespan, move.finish);
    workLeft -= minWork;
    return saved;
  }

  /// Reverts apply(move). The task's stale placement stays behind; it is
  /// never read while the task is not in `done`.
  void undo(const Placement& move, Saved saved, Cycles minWork) {
    tileAvail[static_cast<std::size_t>(move.tile)] = saved.tileAvail;
    done &= ~(1u << move.task);
    makespan = saved.makespan;
    workLeft += minWork;
  }
};

/// Remaining critical path per task (min-WCET weights, no communication):
/// an admissible lower bound for pruning. One reverse pass over task ids,
/// which are a topological order (htg::TaskGraph::deps).
std::vector<Cycles> remainingCriticalPath(const SchedContext& ctx,
                                          const std::vector<Cycles>& minW) {
  std::vector<Cycles> cp(minW.size());
  for (std::size_t i = cp.size(); i-- > 0;) {
    Cycles tail = 0;
    for (int s : ctx.succ[i]) {
      tail = std::max(tail, cp[static_cast<std::size_t>(s)]);
    }
    cp[i] = minW[i] + tail;
  }
  return cp;
}

/// Admissible lower bound on any completion of `frame`: the total
/// remaining work spread over all cores, and for every unscheduled task
/// its ready time plus its remaining critical path. The task starts no
/// earlier than the least-loaded tile is free (placements only append)
/// and its placed predecessors finish, and each task on the path after it
/// costs at least its minimum WCET.
Cycles lowerBound(const SearchContext& sc, const Frame& frame) {
  const Cycles minAvail =
      *std::min_element(frame.tileAvail.begin(), frame.tileAvail.end());
  Cycles lb =
      std::max(frame.makespan, minAvail + frame.workLeft / sc.ctx.cores);
  for (std::size_t i = 0; i < sc.n; ++i) {
    if ((frame.done & (1u << i)) != 0) continue;
    Cycles ready = minAvail;
    for (int p : sc.ctx.pred[i]) {
      if ((frame.done & (1u << p)) != 0) {
        ready = std::max(
            ready, frame.placements[static_cast<std::size_t>(p)].finish);
      }
    }
    lb = std::max(lb, ready + sc.cp[i]);
  }
  return lb;
}

/// Writes the children of `frame` to `moves` in (task ascending, tile
/// ascending) order, keeping each child whose makespan stays strictly
/// below `pushBound`, and returns how many it wrote. `moves` must hold
/// (unplaced tasks) x cores entries; `est` is scratch for cores entries.
std::size_t expandChildren(const SearchContext& sc, const Frame& frame,
                           Cycles pushBound, Placement* moves, Cycles* est) {
  const std::size_t cores = static_cast<std::size_t>(sc.ctx.cores);
  std::size_t count = 0;
  for (std::size_t task = 0; task < sc.n; ++task) {
    const std::uint32_t preds = sc.predMask[task];
    if ((frame.done & (1u << task)) != 0 || (frame.done & preds) != preds) {
      continue;
    }
    // Earliest start on every tile: its availability, then each placed
    // predecessor's finish plus the transfer from that predecessor's tile.
    std::copy_n(frame.tileAvail.begin(), cores, est);
    const std::vector<int>& pred = sc.ctx.pred[task];
    for (std::size_t j = 0; j < pred.size(); ++j) {
      const Placement& pp = frame.placements[static_cast<std::size_t>(pred[j])];
      const Cycles* comm =
          sc.comm.predRow(static_cast<int>(task), j, pp.tile);
      for (std::size_t tile = 0; tile < cores; ++tile) {
        est[tile] = std::max(est[tile], pp.finish + comm[tile]);
      }
    }

    const std::vector<Cycles>& wcet = sc.ctx.timings[task].wcetByTile;
    Cycles prevAvail = -1;
    Cycles prevEst = -1;
    Cycles prevCost = -1;
    for (std::size_t tile = 0; tile < cores; ++tile) {
      const Cycles avail = frame.tileAvail[tile];
      const Cycles cost = wcet[tile];
      // Symmetry breaking: a tile this frame cannot tell apart from the
      // previous one — same availability, same earliest start (which folds
      // in cross-tile communication from every placed predecessor), same
      // WCET — yields an identical placement, so skip the repeat. The one
      // asymmetry this cannot see is *future* communication (a NoC mesh
      // position matters to tasks not yet placed), so on
      // topology-asymmetric platforms the search is exact only up to this
      // tile symmetry; on bus platforms (uniform transfer costs) it is
      // exact outright.
      if (avail == prevAvail && est[tile] == prevEst && cost == prevCost) {
        continue;
      }
      prevAvail = avail;
      prevEst = est[tile];
      prevCost = cost;
      const Cycles finish = est[tile] + cost;
      if (std::max(frame.makespan, finish) < pushBound) {
        moves[count++] = Placement{static_cast<int>(task),
                                   static_cast<int>(tile), est[tile], finish};
      }
    }
  }
  return count;
}

/// The best complete schedule found so far: the HEFT seed until the
/// search strictly beats it.
struct Incumbent {
  Cycles makespan = 0;
  std::vector<Placement> placements;
};

/// The depth-first search from `frame`, in place on that one frame,
/// charging one of `nodesLeft` per visited node. Returns false when the
/// budget ran out before the search finished.
bool search(const SearchContext& sc, Frame& frame, std::int64_t& nodesLeft,
            Incumbent& best) {
  const std::size_t cores = static_cast<std::size_t>(sc.ctx.cores);
  // Children of every node on the current path, stacked: a node with k
  // placed tasks has at most (n - k) x cores of them.
  std::vector<Placement> moves(cores * sc.n * (sc.n + 1) / 2);
  std::vector<Cycles> est(cores);
  // Visits the node `frame` holds, writing its children to `moves` from
  // `base` on. Returns false once the budget has run out.
  const auto visit = [&](const auto& self, std::size_t base) -> bool {
    if (nodesLeft <= 0) return false;
    --nodesLeft;

    if (frame.done == sc.allDone) {
      if (frame.makespan < best.makespan) {
        best.makespan = frame.makespan;
        best.placements = frame.placements;
      }
      return true;
    }

    if (lowerBound(sc, frame) >= best.makespan) return true;
    const std::size_t count = expandChildren(sc, frame, best.makespan,
                                             moves.data() + base, est.data());
    for (std::size_t k = base + count; k-- > base;) {
      const Placement& move = moves[k];
      const Cycles minWork = sc.minW[static_cast<std::size_t>(move.task)];
      const Frame::Saved saved = frame.apply(move, minWork);
      const bool more = self(self, base + count);
      frame.undo(move, saved, minWork);
      if (!more) return false;
    }
    return true;
  };
  return visit(visit, 0);
}

}  // namespace

namespace detail {

Schedule branchAndBound(const SchedContext& ctx, const SchedOptions& options) {
  const std::size_t n = ctx.graph.tasks.size();
  const CommTable comm(ctx);
  if (!bnbExactSearchFeasible(n)) {
    // Exact search is hopeless at this size (kBnbTaskLimit, which the
    // bitmask width kBnbMaxTasks bounds); fall back to the heuristic —
    // the ARGO "exact + heuristics" combination. Oversized graphs are
    // scheduled, never rejected.
    return listSchedule(ctx, comm, options.interferenceAware,
                        "branch_and_bound(fallback=heft)");
  }

  SearchContext sc{ctx, comm, {}, std::vector<Cycles>(n),
                   std::vector<std::uint32_t>(n), n,
                   n >= 32 ? ~0u : (1u << n) - 1u};
  Cycles totalMinWork = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sc.minW[i] = *std::min_element(ctx.timings[i].wcetByTile.begin(),
                                   ctx.timings[i].wcetByTile.end());
    totalMinWork += sc.minW[i];
    for (int p : ctx.pred[i]) sc.predMask[i] |= 1u << p;
  }
  sc.cp = remainingCriticalPath(ctx, sc.minW);

  // Seed incumbent with HEFT: the search only has to *improve* on it.
  const Schedule seed =
      listSchedule(ctx, comm, options.interferenceAware, "heft");

  Frame root;
  root.placements.resize(n);
  root.tileAvail.assign(static_cast<std::size_t>(ctx.cores), 0);
  root.workLeft = totalMinWork;

  Incumbent best{seed.makespan, seed.placements};
  const std::int64_t budget =
      std::max<std::int64_t>(options.bnbNodeBudget, 0);
  std::int64_t nodesLeft = budget;
  const bool budgetExhausted = !search(sc, root, nodesLeft, best);

  nodesCounter().add(static_cast<std::uint64_t>(budget - nodesLeft));
  if (budgetExhausted) budgetExhaustedCounter().add();

  // Rebuild tile order / usage from the winning placements.
  Schedule result;
  result.placements = std::move(best.placements);
  result.makespan = best.makespan;
  result.tileOrder.assign(
      static_cast<std::size_t>(ctx.platform.coreCount()), {});
  std::vector<int> byStart(n);
  std::iota(byStart.begin(), byStart.end(), 0);
  std::sort(byStart.begin(), byStart.end(), [&](int a, int b) {
    return result.placements[static_cast<std::size_t>(a)].start <
           result.placements[static_cast<std::size_t>(b)].start;
  });
  for (int t : byStart) {
    result
        .tileOrder[static_cast<std::size_t>(
            result.placements[static_cast<std::size_t>(t)].tile)]
        .push_back(t);
  }
  for (const auto& order : result.tileOrder) {
    if (!order.empty()) ++result.tilesUsed;
  }
  result.policy = budgetExhausted ? "branch_and_bound(budget)"
                                  : "branch_and_bound";
  return result;
}

}  // namespace detail

}  // namespace argo::sched
