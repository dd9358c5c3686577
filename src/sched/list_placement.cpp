#include "sched/list_placement.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

namespace argo::sched::detail {

CommTable::CommTable(const SchedContext& ctx)
    : tiles_(static_cast<std::size_t>(ctx.platform.coreCount())) {
  const std::vector<htg::Dep>& deps = ctx.graph.deps;
  const std::size_t n = ctx.graph.tasks.size();
  // Slots grouped by consumer: predBegin_[t + 1] - predBegin_[t] is the
  // number of predecessor edges of task t.
  predBegin_.assign(n + 1, 0);
  for (const htg::Dep& d : deps) {
    ++predBegin_[static_cast<std::size_t>(d.to) + 1];
  }
  std::partial_sum(predBegin_.begin(), predBegin_.end(), predBegin_.begin());
  std::vector<std::size_t> next(predBegin_.begin(), predBegin_.end() - 1);
  costs_.resize(deps.size() * tiles_ * tiles_);
  for (const htg::Dep& d : deps) {
    const std::size_t slot = next[static_cast<std::size_t>(d.to)]++;
    Cycles* cost = &costs_[slot * tiles_ * tiles_];
    for (std::size_t a = 0; a < tiles_; ++a) {
      for (std::size_t b = 0; b < tiles_; ++b) {
        *cost++ = commCost(ctx.platform, d, static_cast<int>(a),
                           static_cast<int>(b));
      }
    }
  }
}

std::vector<double> upwardRanks(const SchedContext& ctx,
                                const CommTable& comm) {
  const htg::TaskGraph& graph = ctx.graph;
  const std::size_t n = graph.tasks.size();
  std::vector<double> avgW(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = ctx.timings[i].wcetByTile;
    avgW[i] = static_cast<double>(std::accumulate(w.begin(), w.end(),
                                                  Cycles{0})) /
              static_cast<double>(w.size());
  }
  // Representative cross-tile pair for communication averaging: every
  // successor of a task, with half its edge's cost between the pair.
  const int tileA = 0;
  const int tileB = ctx.platform.coreCount() - 1;
  std::vector<std::vector<std::pair<int, double>>> succComm(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<int>& preds = ctx.pred[s];
    for (std::size_t j = 0; j < preds.size(); ++j) {
      succComm[static_cast<std::size_t>(preds[j])].emplace_back(
          static_cast<int>(s),
          static_cast<double>(
              comm.predRow(static_cast<int>(s), j, tileA)[tileB]) /
              2.0);
    }
  }
  // Task ids are a topological order (htg::TaskGraph::deps), so a
  // reverse pass sees every successor's rank before its predecessors'.
  std::vector<double> rank(n);
  for (std::size_t t = n; t-- > 0;) {
    double best = 0.0;
    for (const auto& [s, halfComm] : succComm[t]) {
      best = std::max(best, halfComm + rank[static_cast<std::size_t>(s)]);
    }
    rank[t] = avgW[t] + best;
  }
  return rank;
}

std::vector<int> priorityOrder(const std::vector<double>& rank) {
  std::vector<int> order(rank.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (rank[static_cast<std::size_t>(a)] != rank[static_cast<std::size_t>(b)]) {
      return rank[static_cast<std::size_t>(a)] >
             rank[static_cast<std::size_t>(b)];
    }
    return a < b;  // deterministic tie-break
  });
  return order;
}

ListPlacer::ListPlacer(const SchedContext& ctx, const CommTable& comm,
                       bool interferenceAware)
    : ctx_(ctx), comm_(comm), interferenceAware_(interferenceAware) {
  placements_.resize(ctx.graph.tasks.size());
  tileAvail_.assign(static_cast<std::size_t>(ctx.cores), 0);
  tileOrder_.resize(static_cast<std::size_t>(ctx.cores));
}

Cycles ListPlacer::earliestStart(int task, int tile) const {
  Cycles est = tileAvail_[static_cast<std::size_t>(tile)];
  const std::vector<int>& preds = ctx_.pred[static_cast<std::size_t>(task)];
  for (std::size_t j = 0; j < preds.size(); ++j) {
    const Placement& pp = placements_[static_cast<std::size_t>(preds[j])];
    est = std::max(est, pp.finish + comm_.predRow(task, j, pp.tile)[tile]);
  }
  return est;
}

Cycles ListPlacer::placedCost(int task, int tile, Cycles start) const {
  const Cycles base = baseCost(task, tile);
  if (!interferenceAware_) return base;
  const std::int64_t accesses =
      ctx_.timings[static_cast<std::size_t>(task)].sharedAccesses;
  if (accesses == 0) return base;
  // Contenders: tiles whose currently-placed work overlaps the window
  // this task would occupy (including this task's tile itself). Windows
  // are half-open: [start, end) against each placed [start, finish).
  const Cycles end = start + base;
  int contenders = 1;
  for (int t = 0; t < ctx_.cores; ++t) {
    if (t == tile) continue;
    for (int other : tileOrder_[static_cast<std::size_t>(t)]) {
      const Placement& op = placements_[static_cast<std::size_t>(other)];
      if (start < op.finish && op.start < end) {
        ++contenders;
        break;
      }
    }
  }
  const Cycles extra = ctx_.platform.sharedAccessWorstCase(tile, contenders) -
                       ctx_.platform.sharedAccessBase(tile);
  return base + accesses * extra;
}

void ListPlacer::place(int task, int tile, Cycles start, Cycles cost) {
  Placement p;
  p.task = task;
  p.tile = tile;
  p.start = start;
  p.finish = start + cost;
  placements_[static_cast<std::size_t>(task)] = p;
  tileAvail_[static_cast<std::size_t>(tile)] = p.finish;
  tileOrder_[static_cast<std::size_t>(tile)].push_back(task);
  makespan_ = std::max(makespan_, p.finish);
}

Cycles ListPlacer::placeAssignment(const std::vector<int>& order,
                                   const std::vector<int>& tileOf) {
  std::fill(tileAvail_.begin(), tileAvail_.end(), 0);
  for (std::vector<int>& tasks : tileOrder_) tasks.clear();
  makespan_ = 0;
  for (int task : order) {
    const int tile = tileOf[static_cast<std::size_t>(task)];
    const Cycles est = earliestStart(task, tile);
    place(task, tile, est, placedCost(task, tile, est));
  }
  return makespan_;
}

Schedule ListPlacer::finish(std::string policy) const {
  Schedule s;
  s.placements = placements_;
  s.tileOrder.assign(
      static_cast<std::size_t>(ctx_.platform.coreCount()), {});
  for (int t = 0; t < ctx_.cores; ++t) {
    s.tileOrder[static_cast<std::size_t>(t)] =
        tileOrder_[static_cast<std::size_t>(t)];
  }
  s.makespan = makespan_;
  for (const auto& order : s.tileOrder) {
    if (!order.empty()) ++s.tilesUsed;
  }
  s.policy = std::move(policy);
  return s;
}

Schedule listSchedule(const SchedContext& ctx, const CommTable& comm,
                      bool interferenceAware, std::string policyLabel) {
  ListPlacer placer(ctx, comm, interferenceAware);
  for (int task : priorityOrder(upwardRanks(ctx, comm))) {
    int bestTile = 0;
    Cycles bestStart = 0;
    Cycles bestCost = 0;
    Cycles bestEft = std::numeric_limits<Cycles>::max();
    for (int t = 0; t < ctx.cores; ++t) {
      const Cycles est = placer.earliestStart(task, t);
      const Cycles cost = placer.placedCost(task, t, est);
      const Cycles eft = est + cost;
      if (eft < bestEft) {
        bestEft = eft;
        bestTile = t;
        bestStart = est;
        bestCost = cost;
      }
    }
    placer.place(task, bestTile, bestStart, bestCost);
  }
  return placer.finish(std::move(policyLabel));
}

}  // namespace argo::sched::detail
