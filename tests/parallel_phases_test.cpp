// Determinism regressions for the phases on support::parallelFor in
// addition to the feedback exploration (see toolchain_parallel_test.cpp):
// per-task timing analysis, MHP reachability and repeated simulator
// trials. Every pooled run must be bit-identical to its sequential
// counterpart — same tables, same schedules, same makespans. The annealed
// policy runs its one chain on the calling thread, so its schedules must
// not move with SchedOptions::parallelThreads either.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/polka.h"
#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "support/parallel.h"
#include "syswcet/system_wcet.h"

namespace argo {
namespace {

using test::makeDiamondFn;

struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 4, int cores = 4)
      : fn(makeDiamondFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

void expectSameSchedule(const sched::Schedule& a, const sched::Schedule& b) {
  // Per-field checks give readable diagnostics on failure ...
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tilesUsed, b.tilesUsed);
  EXPECT_EQ(a.policy, b.policy);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].task, b.placements[i].task) << "task " << i;
    EXPECT_EQ(a.placements[i].tile, b.placements[i].tile) << "task " << i;
    EXPECT_EQ(a.placements[i].start, b.placements[i].start) << "task " << i;
    EXPECT_EQ(a.placements[i].finish, b.placements[i].finish) << "task " << i;
  }
  EXPECT_EQ(a.tileOrder, b.tileOrder);
  // ... and the defaulted operator== guarantees full field coverage even
  // when Schedule grows new members.
  EXPECT_TRUE(a == b);
}

TEST(ParallelTimings, PooledTableMatchesSequentialBitForBit) {
  Fixture fx;
  const auto sequential = sched::computeTaskTimings(fx.graph, fx.platform, 1);
  for (int threads : {0, 2, 4, 16}) {
    const auto pooled =
        sched::computeTaskTimings(fx.graph, fx.platform, threads);
    ASSERT_EQ(pooled.size(), sequential.size()) << "threads " << threads;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(pooled[i].wcetByTile, sequential[i].wcetByTile)
          << "threads " << threads << " task " << i;
      EXPECT_EQ(pooled[i].sharedAccesses, sequential[i].sharedAccesses)
          << "threads " << threads << " task " << i;
    }
  }
}

TEST(ParallelTimings, SchedulerTimingThreadsDoNotChangeSchedules) {
  // Timing parallelism comes from SchedOptions::parallelThreads (there is
  // no separate ctor knob).
  Fixture fx;
  sched::SchedOptions seqKnobs;
  seqKnobs.parallelThreads = 1;
  sched::SchedOptions pooledKnobs;
  pooledKnobs.parallelThreads = 4;
  const sched::Scheduler sequential(fx.graph, fx.platform, seqKnobs);
  const sched::Scheduler pooled(fx.graph, fx.platform, pooledKnobs);
  sched::SchedOptions options;
  expectSameSchedule(sequential.run(options), pooled.run(options));
}

TEST(ParallelAnneal, PooledRestartsMatchSequentialBitForBit) {
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  options.parallelThreads = 1;
  const sched::Schedule sequential = scheduler.run(options);
  for (int threads : {0, 2, 4, 16}) {
    options.parallelThreads = threads;
    expectSameSchedule(scheduler.run(options), sequential);
  }
}

TEST(ParallelAnneal, SingleRestartReproducesTheClassicChain) {
  // Any thread count must equal the one-chain result: the chain is seeded
  // with exactly the configured seed.
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  options.parallelThreads = 1;
  const sched::Schedule classic = scheduler.run(options);
  options.parallelThreads = 4;
  expectSameSchedule(scheduler.run(options), classic);
}

class PolkaPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    apps::PolkaConfig config;
    config.mosaicH = 16;
    config.mosaicW = 16;
    adl::Platform platform = adl::makeRecoreXentiumBus(4);
    core::ToolchainOptions options;
    options.explorationThreads = 1;
    result_ = new core::ToolchainResult(
        core::Toolchain(platform, options).run(apps::buildPolkaDiagram(config)));
    platform_ = new adl::Platform(std::move(platform));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete platform_;
    result_ = nullptr;
    platform_ = nullptr;
  }

  static core::ToolchainResult* result_;
  static adl::Platform* platform_;
};

core::ToolchainResult* PolkaPipeline::result_ = nullptr;
adl::Platform* PolkaPipeline::platform_ = nullptr;

TEST_F(PolkaPipeline, PooledMhpRowsMatchSequentialBitForBit) {
  const auto sequential = syswcet::mayHappenInParallel(result_->program, 1);
  for (int threads : {0, 2, 4}) {
    EXPECT_EQ(syswcet::mayHappenInParallel(result_->program, threads),
              sequential)
        << "threads " << threads;
  }
}

TEST_F(PolkaPipeline, PooledSystemAnalysisMatchesSequentialBitForBit) {
  const syswcet::SystemWcet sequential =
      syswcet::analyzeSystem(result_->program, *platform_, result_->timings,
                             syswcet::InterferenceMethod::MhpRefined, 1);
  const syswcet::SystemWcet pooled =
      syswcet::analyzeSystem(result_->program, *platform_, result_->timings,
                             syswcet::InterferenceMethod::MhpRefined, 4);
  EXPECT_EQ(pooled.makespan, sequential.makespan);
  ASSERT_EQ(pooled.tasks.size(), sequential.tasks.size());
  for (std::size_t i = 0; i < sequential.tasks.size(); ++i) {
    EXPECT_EQ(pooled.tasks[i].start, sequential.tasks[i].start) << i;
    EXPECT_EQ(pooled.tasks[i].finish, sequential.tasks[i].finish) << i;
    EXPECT_EQ(pooled.tasks[i].inflated, sequential.tasks[i].inflated) << i;
    EXPECT_EQ(pooled.tasks[i].interference, sequential.tasks[i].interference)
        << i;
    EXPECT_EQ(pooled.tasks[i].contenders, sequential.tasks[i].contenders) << i;
  }
  EXPECT_TRUE(pooled == sequential);  // full field coverage
}

TEST_F(PolkaPipeline, PooledSimulatorTrialsMatchSequentialBitForBit) {
  // Independent simulator trials from the same zero environment, differing
  // only in the input seed, run through support::parallelFor. Per-trial
  // makespans must agree between one thread and four: Simulator::step is
  // safe to call concurrently on one simulator.
  apps::PolkaConfig config;
  config.mosaicH = 16;
  config.mosaicW = 16;
  const sim::Simulator simulator(result_->program, *platform_);
  ir::Environment base = ir::makeZeroEnvironment(*result_->fn);
  for (const auto& [name, value] : result_->constants) base[name] = value;

  constexpr std::size_t kTrials = 8;
  const auto trial = [&](std::size_t t) {
    ir::Environment env = base;
    apps::setPolkaInputs(env, config,
                         apps::makePolkaFrame(config, 1000 + t));
    return simulator.step(env).makespan;
  };

  std::vector<adl::Cycles> sequential(kTrials);
  support::parallelFor(kTrials, 1,
                       [&](std::size_t t) { sequential[t] = trial(t); });
  std::vector<adl::Cycles> pooled(kTrials);
  support::parallelFor(kTrials, 4,
                       [&](std::size_t t) { pooled[t] = trial(t); });
  EXPECT_EQ(pooled, sequential);
}

}  // namespace
}  // namespace argo
