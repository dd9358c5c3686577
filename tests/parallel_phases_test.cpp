// Re-entrancy of the tool-chain's phases under the batch graph: the
// per-task timing analysis, scheduling, MHP reachability, the system
// analysis and simulator trials each run concurrently in the nodes of a
// pooled support::TaskGraph, as scenarios::runEval runs them, and every
// copy must be bit-identical to a plain call on the calling thread — same
// tables, same schedules, same makespans. (The whole tool-chain run is
// covered by toolchain_parallel_test.cpp.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/polka.h"
#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "support/graph.h"
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

/// Runs `fn` once in each of `copies` nodes of a graph executed on
/// `threads`, and returns the copies' results in node order.
template <typename Fn>
auto inGraphNodes(int threads, std::size_t copies, const Fn& fn) {
  std::vector<decltype(fn())> out(copies);
  support::TaskGraph graph;
  for (std::size_t k = 0; k < copies; ++k) {
    graph.addNode("copy/" + std::to_string(k),
                  [&out, &fn, k] { out[k] = fn(); });
  }
  graph.run(threads);
  return out;
}

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
  const auto sequential = sched::computeTaskTimings(fx.graph, fx.platform);
  for (int threads : {0, 2, 4, 16}) {
    const auto pooled = inGraphNodes(threads, 8, [&] {
      return sched::computeTaskTimings(fx.graph, fx.platform);
    });
    for (std::size_t k = 0; k < pooled.size(); ++k) {
      ASSERT_EQ(pooled[k].size(), sequential.size()) << "threads " << threads;
      for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(pooled[k][i].wcetByTile, sequential[i].wcetByTile)
            << "threads " << threads << " task " << i;
        EXPECT_EQ(pooled[k][i].sharedAccesses, sequential[i].sharedAccesses)
            << "threads " << threads << " task " << i;
      }
    }
  }
}

TEST(ParallelTimings, SchedulerTimingThreadsDoNotChangeSchedules) {
  // Schedulers built in pooled graph nodes run their timing analysis
  // there; the schedules equal one built on the calling thread.
  Fixture fx;
  const sched::SchedOptions options;
  const sched::Schedule sequential =
      sched::Scheduler(fx.graph, fx.platform).run(options);
  for (const sched::Schedule& pooled : inGraphNodes(4, 8, [&] {
         return sched::Scheduler(fx.graph, fx.platform).run(options);
       })) {
    expectSameSchedule(pooled, sequential);
  }
}

TEST(ParallelAnneal, PooledRestartsMatchSequentialBitForBit) {
  // One scheduler shared by concurrent graph nodes: the annealing chain
  // reads only its inputs, so every node's schedule is the plain call's.
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  const sched::Schedule sequential = scheduler.run(options);
  for (int threads : {0, 2, 4, 16}) {
    for (const sched::Schedule& pooled :
         inGraphNodes(threads, 8, [&] { return scheduler.run(options); })) {
      expectSameSchedule(pooled, sequential);
    }
  }
}

TEST(ParallelAnneal, SingleRestartReproducesTheClassicChain) {
  // The one chain is seeded with exactly the configured seed, so a run in
  // a pooled graph node reproduces the calling thread's chain.
  Fixture fx;
  const sched::Scheduler scheduler(fx.graph, fx.platform);
  sched::SchedOptions options;
  options.policy = "annealed";
  options.saIterations = 400;

  const sched::Schedule classic = scheduler.run(options);
  expectSameSchedule(
      inGraphNodes(4, 2, [&] { return scheduler.run(options); })[1], classic);
}

class PolkaPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    apps::PolkaConfig config;
    config.mosaicH = 16;
    config.mosaicW = 16;
    adl::Platform platform = adl::makeRecoreXentiumBus(4);
    result_ = new core::ToolchainResult(
        core::Toolchain(platform, core::ToolchainOptions{})
            .run(apps::buildPolkaDiagram(config)));
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
  const auto sequential = syswcet::mayHappenInParallel(result_->program);
  for (int threads : {0, 2, 4}) {
    for (const auto& pooled : inGraphNodes(threads, 4, [] {
           return syswcet::mayHappenInParallel(result_->program);
         })) {
      EXPECT_EQ(pooled, sequential) << "threads " << threads;
    }
  }
}

TEST_F(PolkaPipeline, PooledSystemAnalysisMatchesSequentialBitForBit) {
  const auto analyze = [] {
    return syswcet::analyzeSystem(result_->program, *platform_,
                                  result_->timings);
  };
  const syswcet::SystemWcet sequential = analyze();
  for (const syswcet::SystemWcet& pooled : inGraphNodes(4, 4, analyze)) {
    EXPECT_EQ(pooled.makespan, sequential.makespan);
    ASSERT_EQ(pooled.tasks.size(), sequential.tasks.size());
    for (std::size_t i = 0; i < sequential.tasks.size(); ++i) {
      EXPECT_EQ(pooled.tasks[i].start, sequential.tasks[i].start) << i;
      EXPECT_EQ(pooled.tasks[i].finish, sequential.tasks[i].finish) << i;
      EXPECT_EQ(pooled.tasks[i].inflated, sequential.tasks[i].inflated) << i;
      EXPECT_EQ(pooled.tasks[i].interference,
                sequential.tasks[i].interference)
          << i;
      EXPECT_EQ(pooled.tasks[i].contenders, sequential.tasks[i].contenders)
          << i;
    }
    EXPECT_TRUE(pooled == sequential);  // full field coverage
  }
}

TEST_F(PolkaPipeline, PooledSimulatorTrialsMatchSequentialBitForBit) {
  // Independent simulator trials from the same zero environment, differing
  // only in the input seed, one per graph node. Per-trial makespans must
  // agree between one thread and four: Simulator::step is safe to call
  // concurrently on one simulator.
  apps::PolkaConfig config;
  config.mosaicH = 16;
  config.mosaicW = 16;
  const sim::Simulator simulator(result_->program, *platform_);
  ir::Environment base = ir::makeZeroEnvironment(*result_->fn);
  for (const auto& [name, value] : result_->constants) base[name] = value;

  constexpr std::size_t kTrials = 8;
  const auto trials = [&](int threads) {
    std::vector<adl::Cycles> makespans(kTrials);
    support::TaskGraph graph;
    for (std::size_t t = 0; t < kTrials; ++t) {
      graph.addNode("trial", [&, t] {
        ir::Environment env = base;
        apps::setPolkaInputs(env, config,
                             apps::makePolkaFrame(config, 1000 + t));
        makespans[t] = simulator.step(env).makespan;
      });
    }
    graph.run(threads);
    return makespans;
  };
  EXPECT_EQ(trials(4), trials(1));
}

}  // namespace
}  // namespace argo
