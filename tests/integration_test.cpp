// Integration tests: the full tool-chain (Fig. 1) end to end, across use
// cases, platforms and scheduling policies, with the simulator as the
// ground truth for the safety property.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "adl/parser.h"
#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/registry.h"
#include "apps/weaa.h"
#include "core/toolchain.h"
#include "scenarios/eval.h"
#include "scenarios/generator.h"
#include "scenarios/sweep.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace argo::core {
namespace {

enum class App { Egpws, Weaa, Polka };

model::Diagram buildApp(App app) {
  switch (app) {
    case App::Egpws: {
      apps::EgpwsConfig config;
      config.gridH = 16;
      config.gridW = 16;
      config.samples = 16;
      return apps::buildEgpwsDiagram(config);
    }
    case App::Weaa: {
      apps::WeaaConfig config;
      config.horizon = 24;
      config.candidates = 4;
      return apps::buildWeaaDiagram(config);
    }
    case App::Polka: {
      apps::PolkaConfig config;
      config.mosaicH = 16;
      config.mosaicW = 16;
      return apps::buildPolkaDiagram(config);
    }
  }
  throw support::ToolchainError("unknown app");
}

void setAppInputs(App app, ir::Environment& env) {
  switch (app) {
    case App::Egpws:
      apps::setEgpwsInputs(env, apps::EgpwsInputs{});
      break;
    case App::Weaa:
      apps::setWeaaInputs(env, apps::WeaaInputs{});
      break;
    case App::Polka: {
      apps::PolkaConfig config;
      config.mosaicH = 16;
      config.mosaicW = 16;
      apps::setPolkaInputs(env, config, apps::makePolkaFrame(config, 3));
      break;
    }
  }
}

/// Sweep: app x platform kind. The safety property and structural checks
/// hold everywhere.
class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineSweep, EndToEndSafetyAndStructure) {
  const App app = static_cast<App>(std::get<0>(GetParam()));
  const int platformKind = std::get<1>(GetParam());
  const adl::Platform platform =
      platformKind == 0   ? adl::makeRecoreXentiumBus(4)
      : platformKind == 1 ? adl::makeRecoreXentiumBus(4,
                                                      adl::Arbitration::Tdma)
                          : adl::makeKitLeon3Inoc(2, 2);

  ToolchainOptions options;
  const Toolchain toolchain(platform, options);
  const ToolchainResult result = toolchain.run(buildApp(app));

  // Structure: a validated schedule over a non-trivial task graph.
  EXPECT_GT(result.graph->tasks.size(), 1u);
  EXPECT_TRUE(sched::validateSchedule(result.schedule, *result.graph,
                                      platform, result.timings)
                  .empty());
  EXPECT_GT(result.system.makespan, 0);
  EXPECT_GT(result.sequentialWcet, 0);

  // Safety: simulate and compare against the bound.
  sim::Simulator simulator(result.program, platform);
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;
  setAppInputs(app, env);
  const sim::StepResult observed = simulator.step(env);
  EXPECT_LE(observed.makespan, result.system.makespan);

  // Multi-step safety (state evolves; the bound is per-step).
  for (int step = 0; step < 3; ++step) {
    const sim::StepResult again = simulator.step(env);
    EXPECT_LE(again.makespan, result.system.makespan) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(AppsPlatforms, PipelineSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1, 2)));

TEST(Toolchain, ParallelWcetBeatsSequentialOnRealApps) {
  // The headline claim (E2): the guaranteed (bound) speedup > 1 on the
  // compute-heavy use cases with 8 cores.
  const adl::Platform platform = adl::makeRecoreXentiumBus(8);
  const Toolchain toolchain(platform, ToolchainOptions{});
  for (const App app : {App::Weaa, App::Polka}) {
    const ToolchainResult result = toolchain.run(buildApp(app));
    EXPECT_GT(result.wcetSpeedup(), 1.0)
        << "app " << static_cast<int>(app);
  }
}

TEST(Toolchain, FeedbackPicksBestCandidate) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Toolchain toolchain(platform, ToolchainOptions{});
  const ToolchainResult result = toolchain.run(buildApp(App::Polka));
  ASSERT_FALSE(result.feedback.empty());
  Cycles best = std::numeric_limits<Cycles>::max();
  for (const FeedbackPoint& p : result.feedback) {
    best = std::min(best, p.systemWcet);
  }
  EXPECT_EQ(result.system.makespan, best);
  bool chosenSeen = false;
  for (const FeedbackPoint& p : result.feedback) {
    if (p.chunksPerLoop == result.chosenChunks) {
      chosenSeen = true;
      EXPECT_EQ(p.systemWcet, best);
    }
  }
  EXPECT_TRUE(chosenSeen);
}

TEST(Toolchain, InterferenceAwareBeatsPessimisticAnalysis) {
  // E3: analyzing the same program with the parMERASA-style
  // all-contenders assumption yields a strictly worse bound whenever
  // multiple tiles are used on a contention-sensitive interconnect.
  const adl::Platform platform = adl::makeRecoreXentiumBus(8);
  const Toolchain toolchain(platform, ToolchainOptions{});
  const ToolchainResult result = toolchain.run(buildApp(App::Polka));
  const syswcet::SystemWcet pessimistic = syswcet::analyzeSystem(
      result.program, platform, result.timings,
      syswcet::InterferenceMethod::AllContenders);
  EXPECT_LE(result.system.makespan, pessimistic.makespan);
  if (result.schedule.tilesUsed > 1 &&
      result.schedule.tilesUsed < platform.coreCount()) {
    EXPECT_LT(result.system.makespan, pessimistic.makespan);
  }
}

TEST(Toolchain, CustomChunkCandidatesHonored) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  ToolchainOptions options;
  options.chunkCandidates = {3};
  const Toolchain toolchain(platform, options);
  const ToolchainResult result = toolchain.run(buildApp(App::Polka));
  EXPECT_EQ(result.chosenChunks, 3);
  // The requested candidate plus the always-present sequential mapping.
  EXPECT_EQ(result.feedback.size(), 2u);
  EXPECT_EQ(result.feedback[0].coreLimit, 1);
  EXPECT_EQ(result.feedback[1].chunksPerLoop, 3);
}

TEST(Toolchain, TransformsCanBeDisabled) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  ToolchainOptions off;
  off.runTransforms = false;
  off.spmAllocation = false;
  const Toolchain toolchain(platform, off);
  const ToolchainResult result = toolchain.run(buildApp(App::Egpws));
  EXPECT_TRUE(result.passesRun.empty());
}

TEST(Toolchain, SpmAllocationTightensEgpwsBound) {
  // E5 shape: the terrain table fits the Xentium SPM; demoting it must
  // reduce both the sequential and the parallel WCET.
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  ToolchainOptions with;
  ToolchainOptions without;
  without.spmAllocation = false;
  const ToolchainResult a =
      Toolchain(platform, with).run(buildApp(App::Egpws));
  const ToolchainResult b =
      Toolchain(platform, without).run(buildApp(App::Egpws));
  EXPECT_LT(a.sequentialWcet, b.sequentialWcet);
  EXPECT_LT(a.system.makespan, b.system.makespan);
}

TEST(Toolchain, ReportContainsKeyFacts) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Toolchain toolchain(platform, ToolchainOptions{});
  const ToolchainResult result = toolchain.run(buildApp(App::Egpws));
  const std::string report = result.reportText();
  EXPECT_NE(report.find("sequential WCET"), std::string::npos);
  EXPECT_NE(report.find("parallel WCET bound"), std::string::npos);
  EXPECT_NE(report.find("feedback points"), std::string::npos);
  EXPECT_NE(report.find("<== chosen"), std::string::npos);
}

/// A two-tile bus on which every cycle cost is 0.
const char* const kAllZeroAdl =
    "platform free\n"
    "shared_memory 1048576\n"
    "interconnect bus round_robin base_access 0 slot 0 word_bytes 4\n"
    "core z int_alu 0 int_mul 0 int_div 0 float_add 0 float_mul 0 "
    "float_div 0 math_func 0 compare 0 select 0 branch 0 loop_step 0 "
    "local_access 0 spm_access 0 spm_bytes 4096\n"
    "tile 0 z\n"
    "tile 1 z\n";

TEST(Toolchain, OnlyTheFirstPointAtTheMinimumIsMarkedChosen) {
  // Every cycle cost 0: all four feedback points tie at bound 0. The
  // reduction keeps the first minimum, the sequential mapping, so the
  // report marks that row and no other.
  const ToolchainResult result =
      Toolchain(adl::parseAdl(kAllZeroAdl), ToolchainOptions{})
          .run(buildApp(App::Egpws));
  ASSERT_EQ(result.feedback.size(), 4u);
  for (const FeedbackPoint& p : result.feedback) EXPECT_EQ(p.systemWcet, 0);
  std::vector<std::string> marked;
  std::istringstream lines(result.reportText(false));
  for (std::string line; std::getline(lines, line);) {
    if (line.find("<== chosen") != std::string::npos) marked.push_back(line);
  }
  ASSERT_EQ(marked.size(), 1u) << result.reportText(false);
  EXPECT_NE(marked.front().find("(sequential mapping)"), std::string::npos)
      << marked.front();
}

TEST(Toolchain, ZeroBoundOfZeroWorkIsSpeedupOne) {
  // Both the sequential WCET and the bound are 0: nothing is gained and
  // nothing lost, so the guaranteed speedup is 1.
  const ToolchainResult result =
      Toolchain(adl::parseAdl(kAllZeroAdl), ToolchainOptions{})
          .run(buildApp(App::Egpws));
  EXPECT_EQ(result.sequentialWcet, 0);
  EXPECT_EQ(result.system.makespan, 0);
  EXPECT_EQ(result.wcetSpeedup(), 1.0);
  EXPECT_NE(result.reportText(false).find("guaranteed speedup:  1x\n"),
            std::string::npos)
      << result.reportText(false);
}

TEST(Toolchain, ZeroBoundOfPositiveWorkIsUnboundedSpeedup) {
  // Tile 0 pays one cycle in every cost field and tile 1 pays nothing, on
  // a bus that costs nothing: the sequential WCET (tile 0) is positive
  // while the chosen bound (all on tile 1) is 0.
  const adl::Platform platform = adl::parseAdl(
      "platform lopsided\n"
      "shared_memory 1048576\n"
      "interconnect bus round_robin base_access 0 slot 0 word_bytes 4\n"
      "core one int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
      "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
      "local_access 1 spm_access 1 spm_bytes 4096\n"
      "core free int_alu 0 int_mul 0 int_div 0 float_add 0 float_mul 0 "
      "float_div 0 math_func 0 compare 0 select 0 branch 0 loop_step 0 "
      "local_access 0 spm_access 0 spm_bytes 4096\n"
      "tile 0 one\n"
      "tile 1 free\n");
  const ToolchainResult result =
      Toolchain(platform, ToolchainOptions{}).run(buildApp(App::Egpws));
  EXPECT_GT(result.sequentialWcet, 0);
  EXPECT_EQ(result.system.makespan, 0);
  EXPECT_EQ(result.wcetSpeedup(), std::numeric_limits<double>::infinity());
  EXPECT_NE(
      result.reportText(false).find("guaranteed speedup:  unbounded\n"),
      std::string::npos)
      << result.reportText(false);
}

TEST(Toolchain, StageTimingsRecorded) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Toolchain toolchain(platform, ToolchainOptions{});
  const ToolchainResult result = toolchain.run(buildApp(App::Egpws));
  ASSERT_GE(result.stages.size(), 4u);
  for (const StageTiming& s : result.stages) {
    EXPECT_GE(s.milliseconds, 0.0);
    EXPECT_FALSE(s.stage.empty());
  }
}

TEST(Toolchain, MoreCoresNeverHurtTheBound) {
  // E2 shape: the chosen bound is non-increasing in core count.
  const Toolchain tc2(adl::makeRecoreXentiumBus(2), ToolchainOptions{});
  const Toolchain tc4(adl::makeRecoreXentiumBus(4), ToolchainOptions{});
  const Toolchain tc8(adl::makeRecoreXentiumBus(8), ToolchainOptions{});
  const Cycles w2 = tc2.run(buildApp(App::Polka)).system.makespan;
  const Cycles w4 = tc4.run(buildApp(App::Polka)).system.makespan;
  const Cycles w8 = tc8.run(buildApp(App::Polka)).system.makespan;
  // Allow small non-monotonicity from heuristic scheduling (1%).
  EXPECT_LE(w4, w2 + w2 / 100);
  EXPECT_LE(w8, w4 + w4 / 100);
}

TEST(Toolchain, GeneratedCodeAvailablePerCore) {
  // Every tile that runs a task gets a tile<T>.c unit that defines those
  // tasks and the tile's dispatch table; a tile without tasks gets none.
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Toolchain toolchain(platform, ToolchainOptions{});
  const ToolchainResult result = toolchain.run(buildApp(App::Egpws));
  codegen::InputTrace trace;
  trace.steps.push_back(ir::makeZeroEnvironment(*result.fn));
  const codegen::Emission emission = toolchain.emitC(result, trace);
  const std::vector<std::vector<int>>& tileOrder = result.schedule.tileOrder;
  for (std::size_t tile = 0; tile < tileOrder.size(); ++tile) {
    const std::string unit = "tile" + std::to_string(tile) + ".c";
    const bool emitted = std::find(emission.cUnits.begin(),
                                   emission.cUnits.end(),
                                   unit) != emission.cUnits.end();
    EXPECT_EQ(emitted, !tileOrder[tile].empty()) << unit;
    if (!emitted) continue;
    const std::string& source = emission.file(unit).contents;
    EXPECT_NE(source.find("argo_tile" + std::to_string(tile) + "_slots["),
              std::string::npos)
        << unit;
    for (int task : tileOrder[tile]) {
      EXPECT_NE(source.find("void argo_task_" + std::to_string(task) +
                            "(void)"),
                std::string::npos)
          << unit << " task " << task;
    }
  }
}

// ---- The shared-access count bounds every metered run ----
//
// TaskTiming::sharedAccesses is the count syswcet multiplies by the
// interference penalty, so no simulated step of a task may make more
// shared data accesses than it.

/// Simulates three steps of `result` on `platform`, `setInputs(env, step)`
/// filling the inputs of each, and checks every task's shared accesses
/// against its code-level count.
template <typename SetInputs>
void expectSharedAccessesWithinCount(const ToolchainResult& result,
                                     const adl::Platform& platform,
                                     SetInputs&& setInputs,
                                     const std::string& tag) {
  const sim::Simulator simulator(result.program, platform);
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;
  for (int step = 0; step < 3; ++step) {
    setInputs(env, step);
    const sim::StepResult observed = simulator.step(env);
    ASSERT_EQ(observed.tasks.size(), result.timings.size()) << tag;
    EXPECT_GT(observed.totalSharedAccesses, 0) << tag;
    for (std::size_t i = 0; i < observed.tasks.size(); ++i) {
      EXPECT_LE(observed.tasks[i].sharedAccesses,
                result.timings[i].sharedAccesses)
          << tag << " step " << step << " task " << i;
    }
  }
}

TEST(SharedAccessCount, BoundsEverySimulatedTaskOfTheApps) {
  // argo_cc's default 8 cores: an 8-tile bus and a 3x3 mesh.
  const adl::Platform bus = adl::makeRecoreXentiumBus(8);
  const adl::Platform noc = adl::makeKitLeon3Inoc(3, 3);
  for (const std::string app : {"egpws", "weaa", "polka"}) {
    for (const adl::Platform* platform : {&bus, &noc}) {
      const ToolchainResult result = Toolchain(*platform, ToolchainOptions{})
                                         .run(apps::buildAppDiagram(app));
      expectSharedAccessesWithinCount(
          result, *platform,
          [&](ir::Environment& env, int step) {
            apps::setAppStepInputs(app, env, static_cast<std::uint64_t>(step));
          },
          app + " on " + platform->name());
    }
  }
}

TEST(SharedAccessCount, BoundsEverySimulatedTaskOfSeedSevenScenarios) {
  // argo_eval --seed 7: each scenario on its modulo sweep case, with the
  // batch's tool-chain options and random inputs in [-1, 1).
  scenarios::GeneratorOptions generator;
  generator.seed = 7;
  const std::vector<scenarios::PlatformCase> sweep =
      scenarios::buildPlatformSweep(scenarios::SweepOptions{});
  for (int index = 0; index < 12; ++index) {
    const scenarios::Scenario scenario =
        scenarios::generateScenario(generator, index);
    const adl::Platform& platform =
        sweep[scenarios::moduloSweepCase(static_cast<std::size_t>(index),
                                         sweep.size())]
            .platform;
    const ToolchainResult result =
        Toolchain(platform, scenarios::defaultEvalToolchainOptions())
            .run(scenario.model);
    expectSharedAccessesWithinCount(
        result, platform,
        [&](ir::Environment& env, int step) {
          support::Rng rng(scenario.seed + static_cast<std::uint64_t>(step));
          for (const ir::VarDecl& decl : result.fn->decls()) {
            if (decl.role != ir::VarRole::Input) continue;
            ir::Value& value = env[decl.name];
            for (std::int64_t k = 0; k < value.size(); ++k) {
              value.setFloat(k, rng.uniformDouble() * 2.0 - 1.0);
            }
          }
        },
        scenario.name);
  }
}

}  // namespace
}  // namespace argo::core
