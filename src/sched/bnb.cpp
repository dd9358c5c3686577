#include "sched/bnb.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "sched/list_placement.h"
#include "sched/policy.h"
#include "support/metrics.h"

namespace argo::sched {

namespace {

// ---------------------------------------------------------------------------
// Why the split search is identical to the classic DFS
// ---------------------------------------------------------------------------
//
// The classic search is a depth-first traversal: a node's children are
// generated in (task ascending, tile ascending) order, keeping those whose
// makespan stays below the bound in force at that moment, and visited in
// the reverse of that order, newest first — the order an explicit stack
// of pushed children pops them in. The search recurses into each child in
// turn on one frame, applying the child's placement and undoing it on
// return; a child list, once generated, is not re-filtered as the bound
// drops, exactly like children already sitting on a stack. A node is
// pruned when its admissible lower bound `lb` reaches the best complete
// makespan seen so far (strict improvements only), which starts at the
// HEFT seed. Its result is the *first complete schedule, in that traversal
// order, attaining the search-space optimum* (or the seed incumbent when
// nothing beats it).
//
// The split search partitions the same tree at a frontier depth d: every
// surviving node with d placed tasks becomes the root of a subtree
// search, and the subtrees are searched one after another on the calling
// thread. Three choices make the combined result identical to the classic
// traversal, for every depth:
//
//  1. *Ladder order equals classic visit order.* The frontier is generated
//     level by level, children appended in (task, tile) ascending order,
//     which lists the depth-d nodes in ascending lexicographic order of
//     their construction paths; the classic traversal visits them in
//     exactly the reverse order (descending, newest-first). Reversing the
//     list, searching the subtrees in that (ladder) order and keeping a
//     subtree's record only when it strictly beats every earlier one
//     (first optimum wins) therefore selects the same subtree whose
//     first-in-DFS attainer the classic search would have kept. Frontier
//     generation prunes only against the fixed seed bound; nodes the
//     classic search would additionally prune with its evolving bound have
//     subtree minima no smaller than some earlier-in-ladder subtree's
//     result, so the ladder never selects them either.
//
//  2. *A subtree records its first attainer.* Each subtree records a
//     schedule only when it strictly improves on its own `localBest`,
//     which starts at the seed makespan. An induction over the DFS shows
//     the subtree's final record is the first (in DFS order) complete
//     schedule attaining the subtree minimum m_i, *independent of the
//     initial bound* as long as that bound exceeds m_i: on the path to
//     that first attainer every lower bound is <= m_i < localBest (no
//     earlier attainer exists to lower localBest to m_i), so no prune
//     against localBest can cut it.
//
//  3. *The incumbent prunes strictly.* Subtrees additionally skip a node
//     when `lb > bound`, where `bound` is the incumbent's makespan: the
//     best recorded so far by this subtree or an earlier one (the seed
//     makespan to begin with). Every value it holds is the makespan of
//     some complete schedule, hence >= the global optimum. A node skipped
//     this way has every completion >= lb > bound >= optimum — strictly
//     worse than the optimum, so it can contain neither the optimum nor
//     anything tying it. In particular the path to the first attainer of
//     any subtree with m_i == optimum has lb <= optimum <= bound and is
//     never skipped: every such subtree still records its first attainer
//     (point 2), and the ladder picks the same one as the classic search.
//     (A non-strict `lb >= bound` would also skip completions that merely
//     *tie* the bound; the argument above needs the strict comparison.)
//
// Budget: per-subtree budgets are fixed up front (they sum to
// bnbNodeBudget minus the frontier nodes, see bnbSplitNodeBudget), so
// total work is bounded however the tree is split. Which nodes fit inside
// an exhausted budget depends on the frontier depth, but nothing else: the
// subtree order and every bound compared are functions of (graph,
// options). A search that exhausts any budget reports policy
// "branch_and_bound(budget)" and guarantees validity and seed quality,
// not identity with the classic search. Every visited node — leaf, pruned
// or expanded — costs one unit, so a search is cut at the same node
// whatever its frame representation. The determinism suite
// (tests/bnb_test.cpp) pins both behaviours, and the budget path's exact
// results.
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

/// Immutable per-search facts shared by frontier generation and every
/// subtree.
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
/// an admissible lower bound for pruning.
std::vector<Cycles> remainingCriticalPath(const SchedContext& ctx) {
  const std::size_t n = ctx.graph.tasks.size();
  std::vector<Cycles> minW(n);
  for (std::size_t i = 0; i < n; ++i) {
    minW[i] = *std::min_element(ctx.timings[i].wcetByTile.begin(),
                                ctx.timings[i].wcetByTile.end());
  }
  std::vector<Cycles> cp(n, -1);
  // Reverse topological accumulation (iterate until stable; graphs are
  // small when BnB is enabled).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      Cycles tail = 0;
      bool ready = true;
      for (int s : ctx.succ[i]) {
        if (cp[static_cast<std::size_t>(s)] < 0) {
          ready = false;
          break;
        }
        tail = std::max(tail, cp[static_cast<std::size_t>(s)]);
      }
      if (!ready) continue;
      const Cycles value = minW[i] + tail;
      if (value != cp[i]) {
        cp[i] = value;
        changed = true;
      }
    }
  }
  return cp;
}

/// Admissible lower bound on any completion of `frame`: critical path of
/// any unscheduled task, and total remaining work spread over all cores.
Cycles lowerBound(const SearchContext& sc, const Frame& frame) {
  Cycles lb = frame.makespan;
  for (std::size_t i = 0; i < sc.n; ++i) {
    if ((frame.done & (1u << i)) == 0) lb = std::max(lb, sc.cp[i]);
  }
  const Cycles minAvail =
      *std::min_element(frame.tileAvail.begin(), frame.tileAvail.end());
  lb = std::max(lb, minAvail + frame.workLeft / sc.ctx.cores);
  return lb;
}

/// Writes the children of `frame` to `moves` in (task ascending, tile
/// ascending) order — the one order every part of the search shares —
/// keeping each child whose makespan stays strictly below `pushBound`, and
/// returns how many it wrote. `moves` must hold (unplaced tasks) x cores
/// entries; `est` is scratch for cores entries.
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

/// The best complete schedule found so far: the HEFT seed until a subtree
/// strictly beats it.
struct Incumbent {
  Cycles makespan = 0;
  std::vector<Placement> placements;
};

/// What one subtree search charged to its budget.
struct SubtreeEffort {
  std::int64_t expanded = 0;  ///< nodes visited
  bool exhausted = false;
};

/// Classic DFS over one subtree, in place on one frame. The subtree keeps
/// its own record, `localBest`, which starts at the seed makespan; a
/// record that strictly beats `best` — the best of this and every earlier
/// subtree — also replaces it. With `root` = the whole tree and `budget` =
/// the full node budget this *is* the classic search; `best` then only
/// ever holds this search's own records, so the `lb > best.makespan` check
/// is subsumed by `lb >= localBest`.
SubtreeEffort searchSubtree(const SearchContext& sc, Frame frame,
                            Cycles seedBound, std::int64_t budget,
                            Incumbent& best) {
  SubtreeEffort out;
  Cycles localBest = seedBound;
  const std::size_t cores = static_cast<std::size_t>(sc.ctx.cores);
  // Children of every node on the current path, stacked: a node with k
  // placed tasks has at most (n - k) x cores of them.
  std::vector<Placement> moves(cores * sc.n * (sc.n + 1) / 2);
  std::vector<Cycles> est(cores);
  // Visits the node `frame` holds, writing its children to `moves` from
  // `base` on. Returns false once the budget has run out.
  const auto visit = [&](const auto& self, std::size_t base) -> bool {
    if (out.expanded >= budget) {
      out.exhausted = true;
      return false;
    }
    ++out.expanded;

    if (frame.done == sc.allDone) {
      if (frame.makespan < localBest) {
        localBest = frame.makespan;
        if (frame.makespan < best.makespan) {
          best.makespan = frame.makespan;
          best.placements = frame.placements;
        }
      }
      return true;
    }

    const Cycles lb = lowerBound(sc, frame);
    if (lb >= localBest) return true;
    // STRICT comparison (see proof above, point 3).
    if (lb > best.makespan) return true;
    const std::size_t count = expandChildren(sc, frame, localBest,
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
  visit(visit, 0);
  return out;
}

/// Depth-`depth` frontier in ascending lexicographic (generation) order,
/// plus the number of nodes expanded to build it (counted against the
/// node budget). Generation prunes only against the fixed seed bound,
/// which keeps the frontier a function of (graph, options) alone.
struct FrontierResult {
  std::vector<Frame> nodes;
  std::int64_t expanded = 0;
};

/// Deepening stops early once a level reaches this many nodes: deeper
/// frontiers stop paying off long before this, and the cap bounds the
/// transient memory of the next expansion. Depends only on sizes, so the
/// frontier stays deterministic.
constexpr std::size_t kMaxFrontierNodes = 1024;

FrontierResult generateFrontier(const SearchContext& sc, Frame root,
                                Cycles seedBound, int depth) {
  FrontierResult out;
  out.nodes.push_back(std::move(root));
  std::vector<Placement> moves(sc.n * static_cast<std::size_t>(sc.ctx.cores));
  std::vector<Cycles> est(static_cast<std::size_t>(sc.ctx.cores));
  for (int level = 0; level < depth && !out.nodes.empty(); ++level) {
    if (out.nodes.size() >= kMaxFrontierNodes) break;
    std::vector<Frame> next;
    for (const Frame& frame : out.nodes) {
      ++out.expanded;
      const Cycles lb = lowerBound(sc, frame);
      if (lb >= seedBound) continue;
      const std::size_t count =
          expandChildren(sc, frame, seedBound, moves.data(), est.data());
      for (std::size_t k = 0; k < count; ++k) {
        next.push_back(frame);
        next.back().apply(moves[k],
                          sc.minW[static_cast<std::size_t>(moves[k].task)]);
      }
    }
    out.nodes = std::move(next);
  }
  return out;
}

class BnbPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "branch_and_bound";
  }

  [[nodiscard]] Schedule run(const SchedContext& ctx,
                             const SchedOptions& options) const override {
    const std::size_t n = ctx.graph.tasks.size();
    const detail::CommTable comm(ctx);
    if (!bnbExactSearchFeasible(n, options)) {
      // Exact search is hopeless (bnbTaskLimit) or unrepresentable
      // (kBnbMaxTasks) at this size; fall back to the heuristic — the ARGO
      // "exact + heuristics" combination. One consistent rule for both
      // caps: oversized graphs are scheduled, never rejected.
      return detail::listSchedule(ctx, comm, options.interferenceAware,
                                  "branch_and_bound(fallback=heft)");
    }

    SearchContext sc{ctx, comm, remainingCriticalPath(ctx), {}, {}, n,
                     n >= 32 ? ~0u : (1u << n) - 1u};
    Cycles totalMinWork = 0;
    sc.minW.resize(n);
    sc.predMask.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sc.minW[i] = *std::min_element(ctx.timings[i].wcetByTile.begin(),
                                     ctx.timings[i].wcetByTile.end());
      totalMinWork += sc.minW[i];
      for (int p : ctx.pred[i]) sc.predMask[i] |= 1u << p;
    }

    // Seed incumbent with HEFT: the search only has to *improve* on it.
    const Schedule seed =
        detail::listSchedule(ctx, comm, options.interferenceAware, "heft");

    Frame root;
    root.placements.resize(n);
    root.tileAvail.assign(static_cast<std::size_t>(ctx.cores), 0);
    root.workLeft = totalMinWork;

    const int depth =
        std::clamp(options.bnbFrontierDepth, 0, static_cast<int>(n));
    FrontierResult frontier =
        generateFrontier(sc, std::move(root), seed.makespan, depth);
    // Ladder order = classic visit order: the stack explores newest-first,
    // i.e. descending generation order (see proof, point 1).
    std::reverse(frontier.nodes.begin(), frontier.nodes.end());

    const std::vector<std::int64_t> budgets = bnbSplitNodeBudget(
        options.bnbNodeBudget - frontier.expanded, frontier.nodes.size());

    // The subtrees run one after another in ladder order, all pruning
    // against the incumbent (proof, point 3), which keeps only strict
    // improvements: the first optimum wins.
    Incumbent best{seed.makespan, seed.placements};
    bool budgetExhausted = false;
    std::int64_t nodes = frontier.expanded;
    for (std::size_t i = 0; i < frontier.nodes.size(); ++i) {
      const SubtreeEffort effort = searchSubtree(
          sc, std::move(frontier.nodes[i]), seed.makespan, budgets[i], best);
      budgetExhausted = budgetExhausted || effort.exhausted;
      nodes += effort.expanded;
    }

    nodesCounter().add(static_cast<std::uint64_t>(nodes));
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
};

}  // namespace

std::vector<std::int64_t> bnbSplitNodeBudget(std::int64_t remaining,
                                             std::size_t subtrees) {
  if (subtrees == 0) return {};
  if (remaining < 0) remaining = 0;
  const std::int64_t count = static_cast<std::int64_t>(subtrees);
  const std::int64_t share = remaining / count;
  const std::int64_t extra = remaining % count;
  std::vector<std::int64_t> budgets(subtrees, share);
  for (std::int64_t i = 0; i < extra; ++i) {
    ++budgets[static_cast<std::size_t>(i)];
  }
  return budgets;
}

namespace detail {

std::unique_ptr<SchedulingPolicy> makeBnbPolicy() {
  return std::make_unique<BnbPolicy>();
}

}  // namespace detail

}  // namespace argo::sched
