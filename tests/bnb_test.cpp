// Determinism and budget-accounting suite for the branch-and-bound policy
// (sched/bnb.h). The contract under test: for any frontier depth, the
// split search returns a schedule bit-identical to the classic monolithic
// DFS (bnbFrontierDepth = 0), as long as the node budget is not
// exhausted; a search that exhausts its budget reproduces recorded
// goldens; no result depends on SchedOptions::parallelThreads, which the
// schedule cache key leaves out (core/cache.h); per-subtree budgets always
// sum to the configured bnbNodeBudget; the search-effort counters tally
// exactly the nodes charged to the budget; and oversized graphs fall back
// to HEFT instead of throwing. (Lower-case suite names keep
// `ctest -R bnb` selecting exactly this file.)
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/bnb.h"
#include "sched/scheduler.h"
#include "scenarios/eval.h"
#include "scenarios/generator.h"
#include "scenarios/sweep.h"
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

TEST(bnb_determinism, PooledSearchMatchesClassicForAllDepthsAndThreadCounts) {
  Fixture fx;
  ASSERT_LE(fx.graph.tasks.size(),
            static_cast<std::size_t>(kBnbMaxTasks));
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.bnbFrontierDepth = 0;  // classic monolithic DFS
  classicOpt.parallelThreads = 1;
  const Schedule classic = scheduler.run(classicOpt);
  // The whole search must fit the budget: exhaustion voids the
  // bit-identity guarantee, so the contract check requires a clean run.
  ASSERT_EQ(classic.policy, "branch_and_bound");
  EXPECT_TRUE(validateSchedule(classic, fx.graph, fx.platform,
                               scheduler.timings())
                  .empty());

  for (const int depth : {0, 1, 2, 3}) {
    for (const int threads : {1, 2, 0}) {
      SchedOptions options = bnbOptions();
      options.bnbFrontierDepth = depth;
      options.parallelThreads = threads;
      expectSameSchedule(scheduler.run(options), classic,
                         "depth " + std::to_string(depth) + " threads " +
                             std::to_string(threads));
    }
  }
}

TEST(bnb_determinism, HoldsOnADeepTwelveTaskSearchTree) {
  // A search with hundreds of thousands of expanded nodes, where many
  // subtrees prune against records of earlier ones, so a pruning bug that
  // the 8-task sweep is too quick to expose would surface. One
  // depth/thread sample each keeps the suite affordable.
  Fixture fx(/*chunks=*/3, /*cores=*/3);
  ASSERT_EQ(fx.graph.tasks.size(), 12u);
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.bnbFrontierDepth = 0;
  classicOpt.parallelThreads = 1;
  const Schedule classic = scheduler.run(classicOpt);
  ASSERT_EQ(classic.policy, "branch_and_bound");

  for (const int threads : {2, 0}) {
    SchedOptions options = bnbOptions();
    options.bnbFrontierDepth = 2;
    options.parallelThreads = threads;
    expectSameSchedule(scheduler.run(options), classic,
                       "threads " + std::to_string(threads));
  }
}

TEST(bnb_determinism, HoldsWithInterferenceAwareSeedToo) {
  // The HEFT seed (and therefore the incumbent the search must beat)
  // changes with interference awareness; the determinism argument may not
  // depend on which seed is in play.
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions classicOpt = bnbOptions();
  classicOpt.interferenceAware = true;
  classicOpt.bnbFrontierDepth = 0;
  classicOpt.parallelThreads = 1;
  const Schedule classic = scheduler.run(classicOpt);

  for (const int threads : {2, 0}) {
    SchedOptions options = classicOpt;
    options.bnbFrontierDepth = 2;
    options.parallelThreads = threads;
    expectSameSchedule(scheduler.run(options), classic,
                       "threads " + std::to_string(threads));
  }
}

TEST(bnb_determinism, EvalScenarioReportIsThreadCountInvariant) {
  // A budget-cut search inside the full tool-chain, the way argo_eval runs
  // it: seed-7 scenario 2 on its modulo sweep case. Its chunks=2 feedback
  // point exhausts the 100k-node budget, so the report depends on exactly
  // which nodes were visited — any thread-count dependence in the search
  // would show here, and repeated runs give an interleaving-dependent one
  // the chance to. The schedule cache key leaves parallelThreads out, so
  // every run must agree.
  scenarios::GeneratorOptions generator;
  generator.seed = 7;
  const scenarios::Scenario scenario =
      scenarios::generateScenario(generator, 2);
  const std::vector<scenarios::PlatformCase> sweep =
      scenarios::buildPlatformSweep(scenarios::SweepOptions{});
  const scenarios::PlatformCase& platformCase =
      sweep[scenarios::moduloSweepCase(2, sweep.size())];
  ASSERT_EQ(platformCase.name, "noc_c2");

  core::ToolchainOptions options = scenarios::defaultEvalToolchainOptions();
  options.sched.policy = "branch_and_bound";
  options.sched.parallelThreads = 1;
  const std::string sequential =
      core::Toolchain(platformCase.platform, options)
          .run(scenario.model)
          .reportText(false);
  options.sched.parallelThreads = 4;
  for (int run = 0; run < 40; ++run) {
    EXPECT_EQ(core::Toolchain(platformCase.platform, options)
                  .run(scenario.model)
                  .reportText(false),
              sequential)
        << "run " << run;
  }
}

TEST(bnb_determinism, NeverWorseThanHeftAtAnyDepth) {
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Cycles heft = scheduler.run(heftOpt).makespan;
  for (const int depth : {0, 2}) {
    SchedOptions options = bnbOptions();
    options.bnbFrontierDepth = depth;
    options.parallelThreads = 0;
    EXPECT_LE(scheduler.run(options).makespan, heft) << "depth " << depth;
  }
}

TEST(bnb_budget, PerSubtreeSharesSumExactlyToTheBudget) {
  const auto shares = bnbSplitNodeBudget(100, 7);
  ASSERT_EQ(shares.size(), 7u);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::int64_t{0}),
            100);
  // Even split, remainder front-loaded onto the lowest subtree indices
  // (the subtrees the classic traversal would have reached first).
  EXPECT_EQ(shares.front(), 15);
  EXPECT_EQ(shares.back(), 14);
  EXPECT_TRUE(std::is_sorted(shares.rbegin(), shares.rend()));
}

TEST(bnb_budget, DegenerateSplitsStayAccountable) {
  EXPECT_TRUE(bnbSplitNodeBudget(10, 0).empty());
  const auto scarce = bnbSplitNodeBudget(3, 5);
  EXPECT_EQ(std::accumulate(scarce.begin(), scarce.end(), std::int64_t{0}),
            3);
  EXPECT_EQ(scarce.front(), 1);
  EXPECT_EQ(scarce.back(), 0);
  // Frontier generation overspending the whole budget leaves zero shares,
  // never negative ones.
  const auto overdrawn = bnbSplitNodeBudget(-4, 3);
  EXPECT_EQ(std::accumulate(overdrawn.begin(), overdrawn.end(),
                            std::int64_t{0}),
            0);
}

TEST(bnb_budget, ExhaustionIsAnnotatedAndFallsBackToTheSeed) {
  // A budget too small to expand anything: the search must hand back the
  // HEFT seed incumbent, flag the truncation in the policy label, and do
  // so identically for any thread count (no subtree explores at all).
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Schedule seed = scheduler.run(heftOpt);

  SchedOptions options = bnbOptions();
  options.bnbNodeBudget = 1;
  options.bnbFrontierDepth = 2;
  options.parallelThreads = 1;
  const Schedule truncated = scheduler.run(options);
  EXPECT_EQ(truncated.policy, "branch_and_bound(budget)");
  EXPECT_EQ(truncated.makespan, seed.makespan);
  EXPECT_TRUE(validateSchedule(truncated, fx.graph, fx.platform,
                               scheduler.timings())
                  .empty());

  options.parallelThreads = 0;
  expectSameSchedule(scheduler.run(options), truncated, "pooled truncation");
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

SchedOptions meshOptions(std::int64_t budget, int depth) {
  SchedOptions options = bnbOptions();
  options.interferenceAware = true;
  options.bnbNodeBudget = budget;
  options.bnbFrontierDepth = depth;
  options.parallelThreads = 1;
  return options;
}

TEST(bnb_budget, CutOffsReproduceTheRecordedVisitOrder) {
  // A budget that runs out mid-search keeps whatever incumbent the first
  // `budget` visited nodes produced, so these goldens pin the visit order:
  // child order, bound filtering and budget charging. They were recorded
  // with the explicit-stack search whose order the in-place search keeps,
  // and hold at every parallelThreads value.
  struct Golden {
    std::int64_t budget;
    int depth;
    Cycles makespan;
    std::vector<std::array<Cycles, 3>> placements;  ///< tile, start, finish
  };
  const std::vector<Golden> goldens = {
      {50, 0, 3484, {{3, 843, 1686}, {3, 0, 843}, {0, 1706, 2165},
                     {2, 1702, 2353}, {1, 1702, 2353}, {3, 1686, 2529},
                     {2, 2545, 3484}, {1, 2545, 3484}}},
      {50, 2, 3767, {{0, 0, 459}, {0, 459, 918}, {0, 918, 1377},
                     {0, 1377, 1836}, {1, 934, 2017}, {2, 934, 2449},
                     {0, 2465, 3116}, {0, 3116, 3767}}},
      {500, 0, 3484, {{3, 843, 1686}, {3, 0, 843}, {0, 1706, 2165},
                      {2, 1702, 2353}, {1, 1702, 2353}, {3, 1686, 2529},
                      {2, 2545, 3484}, {1, 2545, 3484}}},
      {500, 2, 3308, {{2, 0, 651}, {1, 0, 651}, {2, 671, 1322},
                      {1, 671, 1322}, {3, 1510, 2353}, {3, 667, 1510},
                      {2, 2369, 3308}, {1, 2369, 3308}}},
      {5000, 0, 2641, {{1, 0, 651}, {3, 0, 843}, {0, 863, 1322},
                       {1, 859, 1510}, {2, 859, 1510}, {3, 843, 1686},
                       {2, 1702, 2641}, {1, 1702, 2641}}},
      {5000, 2, 2465, {{2, 0, 651}, {1, 0, 651}, {0, 667, 1126},
                       {2, 671, 1322}, {1, 671, 1322}, {3, 667, 1510},
                       {2, 1526, 2465}, {1, 1526, 2465}}},
  };
  MeshFixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  for (const int threads : {1, 4, 0}) {
    for (const Golden& g : goldens) {
      const std::string what = "threads " + std::to_string(threads) +
                               " budget " + std::to_string(g.budget) +
                               " depth " + std::to_string(g.depth);
      SchedOptions options = meshOptions(g.budget, g.depth);
      options.parallelThreads = threads;
      const Schedule s = scheduler.run(options);
      EXPECT_EQ(s.makespan, g.makespan) << what;
      EXPECT_EQ(s.policy, "branch_and_bound(budget)") << what;
      ASSERT_EQ(s.placements.size(), g.placements.size()) << what;
      for (std::size_t i = 0; i < g.placements.size(); ++i) {
        const std::string task = what + " task " + std::to_string(i);
        EXPECT_EQ(s.placements[i].tile, g.placements[i][0]) << task;
        EXPECT_EQ(s.placements[i].start, g.placements[i][1]) << task;
        EXPECT_EQ(s.placements[i].finish, g.placements[i][2]) << task;
      }
      EXPECT_TRUE(validateSchedule(s, fx.graph, fx.platform,
                                   scheduler.timings())
                      .empty())
          << what;
    }
  }
}

TEST(bnb_counters, NodesAndExhaustionAreTalliedPerSearch) {
  support::MetricCounter& nodes =
      support::MetricsRegistry::global().counter("sched.bnb.nodes");
  support::MetricCounter& exhausted =
      support::MetricsRegistry::global().counter("sched.bnb.budget_exhausted");
  MeshFixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);

  // The classic search is charged exactly the budget it ran out of.
  std::uint64_t nodesBefore = nodes.value();
  std::uint64_t exhaustedBefore = exhausted.value();
  (void)scheduler.run(meshOptions(500, 0));
  EXPECT_EQ(nodes.value() - nodesBefore, 500u);
  EXPECT_EQ(exhausted.value() - exhaustedBefore, 1u);

  // A complete split search: frontier expansion plus every subtree node
  // (the same count the explicit-stack search charged its budget).
  nodesBefore = nodes.value();
  exhaustedBefore = exhausted.value();
  const Schedule full =
      scheduler.run(meshOptions(SchedOptions{}.bnbNodeBudget, 2));
  ASSERT_EQ(full.policy, "branch_and_bound");
  EXPECT_EQ(nodes.value() - nodesBefore, 150894u);
  EXPECT_EQ(exhausted.value() - exhaustedBefore, 0u);
}

TEST(bnb_fallback, OversizedGraphsScheduleViaHeftInsteadOfThrowing) {
  // More tasks than the 32-bit done-mask can represent: even a permissive
  // bnbTaskLimit must fall back to HEFT (kBnbMaxTasks caps it), exactly
  // like a graph beyond bnbTaskLimit does — one rule for both caps.
  auto fn = makeWideLoopFn();
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{40});
  ASSERT_GT(graph.tasks.size(), static_cast<std::size_t>(kBnbMaxTasks));
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Scheduler scheduler(graph, platform);

  SchedOptions options = bnbOptions();
  options.bnbTaskLimit = 1000;  // permissive: the mask width must still cap
  const Schedule schedule = scheduler.run(options);
  EXPECT_EQ(schedule.policy, "branch_and_bound(fallback=heft)");
  EXPECT_TRUE(validateSchedule(schedule, graph, platform,
                               scheduler.timings())
                  .empty());
}

}  // namespace
}  // namespace argo::sched
