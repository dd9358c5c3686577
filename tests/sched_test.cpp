// Unit tests for the scheduling/mapping policies.
#include <gtest/gtest.h>

#include <algorithm>

#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/bnb.h"
#include "sched/list_placement.h"
#include "sched/scheduler.h"
#include "support/diagnostics.h"

namespace argo::sched {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;
using test::makeDiamondFn;

struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 1, int cores = 4)
      : fn(makeDiamondFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

TEST(Timings, PositiveAndTileIndexed) {
  Fixture fx;
  const auto timings = computeTaskTimings(fx.graph, fx.platform);
  ASSERT_EQ(timings.size(), fx.graph.tasks.size());
  for (const TaskTiming& t : timings) {
    ASSERT_EQ(t.wcetByTile.size(), 4u);
    for (Cycles c : t.wcetByTile) EXPECT_GT(c, 0);
    EXPECT_GT(t.sharedAccesses, 0);  // everything lives in shared memory
  }
}

TEST(Timings, HeterogeneousTilesDiffer) {
  Fixture fx;
  const adl::Platform hetero = adl::makeKitLeon3Inoc(2, 2, /*accel=*/true);
  // Build a math-heavy graph to see the difference.
  auto fn = std::make_unique<ir::Function>("mathy");
  fn->declare("y", Type::float64(), VarRole::Output, ir::Storage::Local);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("y"), ir::un(ir::UnOpKind::Sin,
                                               ir::var("y"))));
  fn->body().append(ir::forLoop("i", 0, 32, std::move(body)));
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{1});
  const auto timings = computeTaskTimings(graph, hetero);
  EXPECT_LT(timings[0].wcetByTile[3], timings[0].wcetByTile[0]);
}

TEST(Heft, ProducesValidSchedule) {
  for (int chunks : {1, 2, 4}) {
    Fixture fx(chunks);
    Scheduler scheduler(fx.graph, fx.platform);
    SchedOptions options;
    const Schedule schedule = scheduler.run(options);
    const auto problems = validateSchedule(schedule, fx.graph, fx.platform,
                                           scheduler.timings());
    EXPECT_TRUE(problems.empty())
        << "chunks " << chunks << ": " << problems.front();
    EXPECT_GT(schedule.makespan, 0);
  }
}

TEST(Heft, UsesMultipleTilesWhenParallelismExists) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  const Schedule schedule = scheduler.run(SchedOptions{});
  EXPECT_GT(schedule.tilesUsed, 1);
}

TEST(Heft, CoreLimitRestrictsTiles) {
  Fixture fx(/*chunks=*/4, /*cores=*/8);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.coreLimit = 2;
  const Schedule schedule = scheduler.run(options);
  for (const Placement& p : schedule.placements) EXPECT_LT(p.tile, 2);
}

TEST(Heft, MoreCoresNeverWorseEstimate) {
  Cycles prev = std::numeric_limits<Cycles>::max();
  for (int cores : {1, 2, 4}) {
    Fixture fx(/*chunks=*/4, cores);
    Scheduler scheduler(fx.graph, fx.platform);
    SchedOptions options;
    options.interferenceAware = false;  // pure makespan comparison
    const Schedule schedule = scheduler.run(options);
    EXPECT_LE(schedule.makespan, prev) << cores << " cores";
    prev = schedule.makespan;
  }
}

TEST(ContentionOblivious, IgnoresInterference) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions aware;
  aware.policy = "heft";
  SchedOptions oblivious;
  oblivious.policy = "contention_oblivious";
  const Schedule a = scheduler.run(aware);
  const Schedule b = scheduler.run(oblivious);
  EXPECT_EQ(b.policy, "contention_oblivious");
  // Both are structurally valid.
  EXPECT_TRUE(validateSchedule(a, fx.graph, fx.platform,
                               scheduler.timings()).empty());
  EXPECT_TRUE(validateSchedule(b, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(BnB, OptimalOnSmallGraphs) {
  Fixture fx(/*chunks=*/2);  // 8 tasks
  ASSERT_LE(fx.graph.tasks.size(), 14u);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  heftOpt.interferenceAware = false;
  const Schedule heft = scheduler.run(heftOpt);
  SchedOptions bnbOpt;
  bnbOpt.policy = "branch_and_bound";
  bnbOpt.interferenceAware = false;
  const Schedule bnb = scheduler.run(bnbOpt);
  EXPECT_TRUE(validateSchedule(bnb, fx.graph, fx.platform,
                               scheduler.timings()).empty());
  // Exact search can never be worse than the heuristic.
  EXPECT_LE(bnb.makespan, heft.makespan);
}

TEST(BnB, FallsBackOnLargeGraphs) {
  // Above kBnbTaskLimit and still inside the search's bitmask: the task
  // cap alone sends the policy to its HEFT fallback.
  Fixture fx(/*chunks=*/4);
  ASSERT_EQ(fx.graph.tasks.size(), 16u);
  ASSERT_GT(fx.graph.tasks.size(), static_cast<std::size_t>(kBnbTaskLimit));
  ASSERT_LE(fx.graph.tasks.size(), static_cast<std::size_t>(kBnbMaxTasks));
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "branch_and_bound";
  const Schedule schedule = scheduler.run(options);
  EXPECT_NE(schedule.policy.find("fallback"), std::string::npos);
  EXPECT_TRUE(validateSchedule(schedule, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(Annealed, NeverWorseThanSeedAndValid) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions heftOpt;
  const Schedule heft = scheduler.run(heftOpt);
  SchedOptions saOpt;
  saOpt.policy = "annealed";
  saOpt.saIterations = 300;
  const Schedule sa = scheduler.run(saOpt);
  EXPECT_LE(sa.makespan, heft.makespan);
  EXPECT_TRUE(validateSchedule(sa, fx.graph, fx.platform,
                               scheduler.timings()).empty());
}

TEST(Annealed, DeterministicForSeed) {
  Fixture fx(/*chunks=*/4);
  Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 200;
  options.seed = 42;
  const Schedule a = scheduler.run(options);
  const Schedule b = scheduler.run(options);
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile);
  }
}

TEST(Validate, DetectsOverlap) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  // Force two tasks onto the same tile at the same time.
  if (schedule.placements.size() >= 2) {
    schedule.placements[1].tile = schedule.placements[0].tile;
    schedule.placements[1].start = schedule.placements[0].start;
    schedule.placements[1].finish = schedule.placements[0].finish;
    EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                  scheduler.timings()).empty());
  }
}

TEST(Validate, DetectsDependenceViolation) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  // Move a consumer before its producer.
  ASSERT_FALSE(fx.graph.deps.empty());
  const htg::Dep& dep = fx.graph.deps.front();
  schedule.placements[static_cast<std::size_t>(dep.to)].start = 0;
  schedule.placements[static_cast<std::size_t>(dep.to)].finish = 1;
  EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                scheduler.timings()).empty());
}

TEST(Validate, DetectsTooShortTask) {
  Fixture fx;
  Scheduler scheduler(fx.graph, fx.platform);
  Schedule schedule = scheduler.run(SchedOptions{});
  schedule.placements[0].finish = schedule.placements[0].start;  // 0 length
  EXPECT_FALSE(validateSchedule(schedule, fx.graph, fx.platform,
                                scheduler.timings()).empty());
}

TEST(CommCost, ZeroWhenColocated) {
  Fixture fx;
  htg::Dep dep;
  dep.bytes = 128;
  EXPECT_EQ(commCost(fx.platform, dep, 1, 1), 0);
  EXPECT_GT(commCost(fx.platform, dep, 0, 1), 0);
}

/// Every entry of the dense communication table equals commCost(), for
/// each dependence edge read at its (consumer, predecessor slot), over all
/// platform tiles, even when the context schedules on fewer (`cores` <
/// coreCount).
void expectCommTableMatchesCommCost(const adl::Platform& platform,
                                    int cores) {
  auto fn = makeDiamondFn();
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{3});
  ASSERT_FALSE(graph.deps.empty());
  const auto timings = computeTaskTimings(graph, platform);
  const auto succ = graph.successors();
  const auto pred = graph.predecessors();
  const SchedContext ctx{graph, platform, timings, succ, pred, cores};
  const detail::CommTable table(ctx);
  const int tiles = platform.coreCount();
  for (std::size_t e = 0; e < graph.deps.size(); ++e) {
    const htg::Dep& dep = graph.deps[e];
    const auto& preds = pred[static_cast<std::size_t>(dep.to)];
    const std::size_t slot = static_cast<std::size_t>(
        std::find(preds.begin(), preds.end(), dep.from) - preds.begin());
    ASSERT_LT(slot, preds.size());
    for (int a = 0; a < tiles; ++a) {
      const Cycles* row = table.predRow(dep.to, slot, a);
      for (int b = 0; b < tiles; ++b) {
        const Cycles expected = commCost(platform, dep, a, b);
        EXPECT_EQ(row[b], expected)
            << "edge " << e << " tiles " << a << "->" << b;
      }
      EXPECT_EQ(row[a], 0) << "edge " << e << " tile " << a;
    }
  }
}

TEST(CommTable, MatchesCommCostOnRoundRobinBus) {
  expectCommTableMatchesCommCost(adl::makeRecoreXentiumBus(4), 4);
}

TEST(CommTable, MatchesCommCostOnTdmaBus) {
  expectCommTableMatchesCommCost(
      adl::makeRecoreXentiumBus(4, adl::Arbitration::Tdma), 4);
}

TEST(CommTable, MatchesCommCostOnNocMesh) {
  // A 3x2 mesh: transfer costs depend on hop distance, so every tile pair
  // is priced on its own.
  expectCommTableMatchesCommCost(adl::makeKitLeon3Inoc(3, 2), 6);
}

TEST(CommTable, CoversEveryPlatformTileUnderACoreLimit) {
  // upwardRanks prices tile 0 against tile coreCount() - 1 whatever the
  // core limit, so the table must span the whole platform.
  expectCommTableMatchesCommCost(adl::makeKitLeon3Inoc(3, 2), 2);
}

TEST(Scheduler, ThrowsOnEmptyGraph) {
  Fixture fx;
  htg::TaskGraph empty;
  empty.fn = fx.fn.get();
  Scheduler scheduler(empty, fx.platform);
  EXPECT_THROW((void)scheduler.run(SchedOptions{}), support::ToolchainError);
}

}  // namespace
}  // namespace argo::sched
