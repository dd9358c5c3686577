// The "annealed" policy: HEFT seed refined by simulated annealing over
// tile assignments (the paper's "advanced heuristic"). Runs one chain,
// seeded with SchedOptions::seed, and keeps the best assignment it
// accepted.
//
// A move is evaluated as a makespan only: the communication table and the
// HEFT priority order depend on the context alone, so they are built once
// per run, and every move re-places the assignment on one reusable
// ListPlacer. The chain loop allocates nothing.
#include <algorithm>
#include <cmath>

#include "sched/list_placement.h"
#include "sched/policy.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace argo::sched {

namespace {

/// Initial temperature of the chain, as a fraction of the HEFT seed
/// makespan (dimensionless).
constexpr double kSaInitialTemp = 0.20;

support::MetricCounter& movesCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.anneal.moves");
  return counter;
}

support::MetricCounter& acceptedCounter() {
  static support::MetricCounter& counter =
      support::MetricsRegistry::global().counter("sched.anneal.accepted");
  return counter;
}

}  // namespace

namespace detail {

Schedule annealed(const SchedContext& ctx, const SchedOptions& options) {
  const CommTable comm(ctx);
  Schedule seed =
      listSchedule(ctx, comm, options.interferenceAware, "annealed");
  const std::vector<int> order = priorityOrder(upwardRanks(ctx, comm));
  const std::size_t n = ctx.graph.tasks.size();
  std::vector<int> seedAssignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    seedAssignment[i] = seed.placements[i].tile;
  }

  // The chain starts from the seed assignment. `best` is the best
  // assignment it accepted; strict `<` lets the earliest move win ties.
  ListPlacer placer(ctx, comm, options.interferenceAware);
  Cycles bestMakespan = seed.makespan;
  std::vector<int> best = seedAssignment;
  std::vector<int> assignment = seedAssignment;
  Cycles current = seed.makespan;
  std::uint64_t moves = 0;     // assignments evaluated
  std::uint64_t accepted = 0;  // of those, accepted
  support::Rng rng(options.seed);
  double temperature = kSaInitialTemp * static_cast<double>(seed.makespan);
  const double cooling =
      std::pow(0.01, 1.0 / std::max(1, options.saIterations));
  for (int iter = 0; iter < options.saIterations; ++iter) {
    const std::size_t task = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(n) - 1));
    const int oldTile = assignment[task];
    const int newTile = static_cast<int>(rng.uniformInt(0, ctx.cores - 1));
    if (newTile == oldTile) continue;
    assignment[task] = newTile;
    const Cycles candidate = placer.placeAssignment(order, assignment);
    ++moves;
    const double delta =
        static_cast<double>(candidate) - static_cast<double>(current);
    const bool accept =
        delta <= 0.0 ||
        rng.uniformDouble() < std::exp(-delta / std::max(1.0, temperature));
    if (accept) {
      ++accepted;
      current = candidate;
      if (candidate < bestMakespan) {
        bestMakespan = candidate;
        best = assignment;
      }
    } else {
      assignment[task] = oldTile;
    }
    temperature *= cooling;
  }
  movesCounter().add(moves);
  acceptedCounter().add(accepted);

  // Annealing never returns something worse than its seed.
  if (placer.placeAssignment(order, best) > seed.makespan) return seed;
  return placer.finish("annealed");
}

}  // namespace detail

}  // namespace argo::sched
