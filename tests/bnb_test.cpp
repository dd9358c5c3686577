// Determinism and budget-accounting suite for the branch-and-bound policy
// (sched/bnb.h). The contract under test: a search that finishes within
// its node budget returns the recorded exact schedule, placement for
// placement, whichever admissible bound prunes it (the goldens were
// recorded under a weaker bound); a search that exhausts its budget
// reproduces recorded goldens of its visit order; a search inside the
// tool-chain gives the same report in pooled graph nodes as in a plain
// call; the search-effort counters tally exactly the nodes
// charged to the budget; and oversized graphs fall back to HEFT instead of
// throwing. (Lower-case suite names keep `ctest -R bnb` selecting exactly
// this file.)
#include <gtest/gtest.h>

#include <array>

#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/bnb.h"
#include "sched/scheduler.h"
#include "scenarios/eval.h"
#include "scenarios/generator.h"
#include "scenarios/sweep.h"
#include "support/graph.h"
#include "support/metrics.h"

namespace argo::sched {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;

/// A single wide loop expanded into many chunks: the cheapest way to a
/// graph with more tasks than the search bitmask can represent.
std::unique_ptr<ir::Function> makeWideLoopFn(int width = 80) {
  auto fn = std::make_unique<ir::Function>("wide");
  fn->declare("u", Type::array(ScalarKind::Float64, {width}), VarRole::Input);
  fn->declare("y", Type::array(ScalarKind::Float64, {width}), VarRole::Output);
  auto body = ir::block();
  body->append(
      ir::assign(ir::ref("y", ir::exprVec(ir::var("i"))),
                 ir::mul(ir::ref("u", ir::exprVec(ir::var("i"))),
                         ir::flt(2.0))));
  fn->body().append(ir::forLoop("i", 0, width, std::move(body)));
  return fn;
}

/// chunks = 2 on 4 cores (8 tasks) searches in milliseconds; chunks = 3 on
/// 3 cores (12 tasks) is a real search tree that still completes well
/// inside the default node budget.
struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 2, int cores = 4)
      : fn(test::makeDiamondFn(/*width=*/24)),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

void expectSameSchedule(const Schedule& a, const Schedule& b,
                        const std::string& what) {
  // Per-field checks give readable diagnostics on failure ...
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.tilesUsed, b.tilesUsed) << what;
  EXPECT_EQ(a.policy, b.policy) << what;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << what;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile)
        << what << " task " << i;
    EXPECT_EQ(a.placements[i].start, b.placements[i].start)
        << what << " task " << i;
    EXPECT_EQ(a.placements[i].finish, b.placements[i].finish)
        << what << " task " << i;
  }
  EXPECT_EQ(a.tileOrder, b.tileOrder) << what;
  // ... and the defaulted operator== guarantees full field coverage even
  // when Schedule grows new members.
  EXPECT_TRUE(a == b) << what;
}

SchedOptions bnbOptions() {
  SchedOptions options;
  options.policy = "branch_and_bound";
  options.interferenceAware = false;  // pure-makespan search space
  return options;
}

/// Tile, start, finish of each task, in task order.
using Placements = std::vector<std::array<Cycles, 3>>;

void expectPlacements(const Schedule& s, Cycles makespan,
                      const Placements& placements, const std::string& what) {
  EXPECT_EQ(s.makespan, makespan) << what;
  ASSERT_EQ(s.placements.size(), placements.size()) << what;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const std::string task = what + " task " + std::to_string(i);
    EXPECT_EQ(s.placements[i].tile, placements[i][0]) << task;
    EXPECT_EQ(s.placements[i].start, placements[i][1]) << task;
    EXPECT_EQ(s.placements[i].finish, placements[i][2]) << task;
  }
}

/// Runs an exact search and checks that it finishes within budget, is
/// valid, and returns the recorded schedule. The goldens were recorded
/// with the classic DFS under the critical-path and work bounds alone; a
/// stronger admissible bound must not move them.
void expectExactGolden(const Fixture& fx, const SchedOptions& options,
                       Cycles makespan, const Placements& placements) {
  const Scheduler scheduler(fx.graph, fx.platform);
  const Schedule s = scheduler.run(options);
  ASSERT_EQ(s.policy, "branch_and_bound");
  expectPlacements(s, makespan, placements, "exact");
  EXPECT_TRUE(
      validateSchedule(s, fx.graph, fx.platform, scheduler.timings()).empty());
}

TEST(bnb_determinism, PooledSearchMatchesClassicForAllDepthsAndThreadCounts) {
  Fixture fx;
  ASSERT_LE(fx.graph.tasks.size(),
            static_cast<std::size_t>(kBnbMaxTasks));
  expectExactGolden(fx, bnbOptions(), 1194,
                    {{0, 0, 278}, {1, 0, 278}, {0, 398, 676}, {1, 398, 676},
                     {2, 398, 676}, {3, 398, 676}, {0, 796, 1194},
                     {1, 796, 1194}});
}

TEST(bnb_determinism, HoldsOnADeepTwelveTaskSearchTree) {
  // A search of about a hundred thousand nodes (over a million under the
  // weaker bound), deep enough that a pruning bug the 8-task fixture is
  // too quick to expose would move the schedule.
  Fixture fx(/*chunks=*/3, /*cores=*/3);
  ASSERT_EQ(fx.graph.tasks.size(), 12u);
  expectExactGolden(fx, bnbOptions(), 944,
                    {{0, 0, 186}, {1, 0, 186}, {2, 0, 186}, {0, 246, 432},
                     {1, 246, 432}, {2, 246, 432}, {0, 432, 618},
                     {1, 432, 618}, {2, 432, 618}, {0, 678, 944},
                     {1, 678, 944}, {2, 678, 944}});
}

TEST(bnb_determinism, HoldsWithInterferenceAwareSeedToo) {
  // The HEFT seed (and therefore the incumbent the search must beat)
  // changes with interference awareness; the exact result may not depend
  // on which seed is in play.
  Fixture fx;
  SchedOptions options = bnbOptions();
  options.interferenceAware = true;
  expectExactGolden(fx, options, 1194,
                    {{1, 0, 278}, {0, 0, 278}, {1, 398, 676}, {0, 398, 676},
                     {3, 398, 676}, {2, 398, 676}, {1, 796, 1194},
                     {0, 796, 1194}});
}

TEST(bnb_determinism, EvalScenarioReportIsThreadCountInvariant) {
  // A budget-cut search inside the full tool-chain, the way argo_eval runs
  // it: seed-7 scenario 11 on its modulo sweep case. The schedule it
  // reports exhausts the 100k-node budget, so the report depends on
  // exactly which nodes were visited — any dependence on the thread that
  // runs it would show here, and 40 runs in the nodes of a four-thread
  // graph give an interleaving-dependent one the chance to.
  scenarios::GeneratorOptions generator;
  generator.seed = 7;
  const scenarios::Scenario scenario =
      scenarios::generateScenario(generator, 11);
  const std::vector<scenarios::PlatformCase> sweep =
      scenarios::buildPlatformSweep(scenarios::SweepOptions{});
  const scenarios::PlatformCase& platformCase =
      sweep[scenarios::moduloSweepCase(11, sweep.size())];
  ASSERT_EQ(platformCase.name, "noc_c2");

  core::ToolchainOptions options = scenarios::defaultEvalToolchainOptions();
  options.sched.policy = "branch_and_bound";
  const core::Toolchain toolchain(platformCase.platform, options);
  const core::ToolchainResult result = toolchain.run(scenario.model);
  ASSERT_EQ(result.schedule.policy, "branch_and_bound(budget)");
  const std::string sequential = result.reportText(false);
  std::vector<std::string> pooled(40);
  support::TaskGraph graph;
  for (std::size_t run = 0; run < pooled.size(); ++run) {
    graph.addNode("run", [&, run] {
      pooled[run] = toolchain.run(scenario.model).reportText(false);
    });
  }
  graph.run(4);
  for (std::size_t run = 0; run < pooled.size(); ++run) {
    EXPECT_EQ(pooled[run], sequential) << "run " << run;
  }
}

TEST(bnb_determinism, NeverWorseThanHeftAtAnyDepth) {
  // Exact or cut off by its budget, the search starts from the HEFT seed
  // and only keeps strict improvements on it.
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Cycles heft = scheduler.run(heftOpt).makespan;
  for (const std::int64_t budget :
       {std::int64_t{100}, SchedOptions{}.bnbNodeBudget}) {
    SchedOptions options = bnbOptions();
    options.bnbNodeBudget = budget;
    EXPECT_LE(scheduler.run(options).makespan, heft) << "budget " << budget;
  }
}

TEST(bnb_budget, ExhaustionIsAnnotatedAndFallsBackToTheSeed) {
  // A budget too small to expand anything: the search must hand back the
  // HEFT seed incumbent, flag the truncation in the policy label, and do
  // so identically on every run (no subtree explores at all).
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Schedule seed = scheduler.run(heftOpt);

  SchedOptions options = bnbOptions();
  options.bnbNodeBudget = 1;
  const Schedule truncated = scheduler.run(options);
  EXPECT_EQ(truncated.policy, "branch_and_bound(budget)");
  EXPECT_EQ(truncated.makespan, seed.makespan);
  EXPECT_TRUE(validateSchedule(truncated, fx.graph, fx.platform,
                               scheduler.timings())
                  .empty());

  expectSameSchedule(scheduler.run(options), truncated, "repeated truncation");
}

/// The budget-path fixture: 8 tasks on a 2x2 NoC mesh with the
/// interference-aware HEFT seed, which the pure-makespan search beats at
/// every budget below — by a different margin each time, so the result
/// depends on exactly which nodes fit inside the budget.
struct MeshFixture {
  std::unique_ptr<ir::Function> fn = test::makeDiamondFn(/*width=*/24);
  htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{2});
  adl::Platform platform = adl::makeKitLeon3Inoc(2, 2);
};

SchedOptions meshOptions(std::int64_t budget) {
  SchedOptions options = bnbOptions();
  options.interferenceAware = true;
  options.bnbNodeBudget = budget;
  return options;
}

TEST(bnb_budget, CutOffsReproduceTheRecordedVisitOrder) {
  // A budget that runs out mid-search keeps whatever incumbent the first
  // `budget` visited nodes produced, so these goldens pin the visit order:
  // child order, bound filtering and budget charging. They were recorded
  // with the explicit-stack search under the critical-path and work
  // bounds; the ready-time bound keeps them, as a stronger admissible
  // bound only skips nodes whose subtrees hold no improvement.
  struct Golden {
    std::int64_t budget;
    Cycles makespan;
    Placements placements;
  };
  const std::vector<Golden> goldens = {
      {50, 3484, {{3, 843, 1686}, {3, 0, 843}, {0, 1706, 2165},
                  {2, 1702, 2353}, {1, 1702, 2353}, {3, 1686, 2529},
                  {2, 2545, 3484}, {1, 2545, 3484}}},
      {500, 3484, {{3, 843, 1686}, {3, 0, 843}, {0, 1706, 2165},
                   {2, 1702, 2353}, {1, 1702, 2353}, {3, 1686, 2529},
                   {2, 2545, 3484}, {1, 2545, 3484}}},
      {5000, 2641, {{1, 0, 651}, {3, 0, 843}, {0, 863, 1322},
                    {1, 859, 1510}, {2, 859, 1510}, {3, 843, 1686},
                    {2, 1702, 2641}, {1, 1702, 2641}}},
  };
  MeshFixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  for (const Golden& g : goldens) {
    const std::string what = "budget " + std::to_string(g.budget);
    const Schedule s = scheduler.run(meshOptions(g.budget));
    EXPECT_EQ(s.policy, "branch_and_bound(budget)") << what;
    expectPlacements(s, g.makespan, g.placements, what);
    EXPECT_TRUE(
        validateSchedule(s, fx.graph, fx.platform, scheduler.timings())
            .empty())
        << what;
  }
}

TEST(bnb_counters, NodesAndExhaustionAreTalliedPerSearch) {
  support::MetricCounter& nodes =
      support::MetricsRegistry::global().counter("sched.bnb.nodes");
  support::MetricCounter& exhausted =
      support::MetricsRegistry::global().counter("sched.bnb.budget_exhausted");
  MeshFixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  // A search that runs out is charged exactly its budget.
  std::uint64_t nodesBefore = nodes.value();
  std::uint64_t exhaustedBefore = exhausted.value();
  (void)scheduler.run(meshOptions(500));
  EXPECT_EQ(nodes.value() - nodesBefore, 500u);
  EXPECT_EQ(exhausted.value() - exhaustedBefore, 1u);

  // A complete search is charged every node it visited: leaves, pruned
  // and expanded nodes alike.
  nodesBefore = nodes.value();
  exhaustedBefore = exhausted.value();
  const Schedule full =
      scheduler.run(meshOptions(SchedOptions{}.bnbNodeBudget));
  ASSERT_EQ(full.policy, "branch_and_bound");
  EXPECT_EQ(nodes.value() - nodesBefore, 86738u);
  EXPECT_EQ(exhausted.value() - exhaustedBefore, 0u);
}

TEST(bnb_fallback, OversizedGraphsScheduleViaHeftInsteadOfThrowing) {
  // More tasks than the 32-bit done-mask can represent fall back to HEFT,
  // exactly like any graph beyond kBnbTaskLimit does.
  auto fn = makeWideLoopFn();
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{40});
  ASSERT_GT(graph.tasks.size(), static_cast<std::size_t>(kBnbMaxTasks));
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Scheduler scheduler(graph, platform);

  const Schedule schedule = scheduler.run(bnbOptions());
  EXPECT_EQ(schedule.policy, "branch_and_bound(fallback=heft)");
  EXPECT_TRUE(validateSchedule(schedule, graph, platform,
                               scheduler.timings())
                  .empty());
}

}  // namespace
}  // namespace argo::sched
