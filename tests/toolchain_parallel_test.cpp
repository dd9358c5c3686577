// A whole tool-chain run, feedback exploration included, inside the nodes
// of a pooled support::TaskGraph — the way scenarios::runEval runs it —
// must be observationally identical to a plain call: same chosen
// candidate, same FeedbackPoint sequence, same report text. The run
// starts no threads of its own, so default options are safe in a node.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/cache.h"
#include "core/toolchain.h"
#include "support/graph.h"

namespace argo::core {
namespace {

model::Diagram buildApp(const std::string& app) {
  if (app == "egpws") {
    apps::EgpwsConfig config;
    config.gridH = 16;
    config.gridW = 16;
    config.samples = 16;
    return apps::buildEgpwsDiagram(config);
  }
  if (app == "weaa") {
    apps::WeaaConfig config;
    config.horizon = 24;
    config.candidates = 4;
    return apps::buildWeaaDiagram(config);
  }
  apps::PolkaConfig config;
  config.mosaicH = 16;
  config.mosaicW = 16;
  return apps::buildPolkaDiagram(config);
}

class ParallelExploreDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelExploreDeterminism, PooledMatchesSequentialBitForBit) {
  // Default options in both nodes of a two-thread graph, each run on its
  // own private cache, against a plain call.
  const model::Diagram diagram = buildApp(GetParam());
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const Toolchain toolchain(platform, ToolchainOptions{});

  const ToolchainResult sequential = toolchain.run(model);
  std::vector<ToolchainResult> pooled(2);
  support::TaskGraph graph;
  for (std::size_t k = 0; k < pooled.size(); ++k) {
    graph.addNode("run", [&, k] { pooled[k] = toolchain.run(model); });
  }
  graph.run(2);

  for (const ToolchainResult& p : pooled) {
    EXPECT_EQ(sequential.chosenChunks, p.chosenChunks);
    EXPECT_EQ(sequential.system.makespan, p.system.makespan);
    EXPECT_EQ(sequential.sequentialWcet, p.sequentialWcet);

    ASSERT_EQ(sequential.feedback.size(), p.feedback.size());
    for (std::size_t i = 0; i < sequential.feedback.size(); ++i) {
      const FeedbackPoint& s = sequential.feedback[i];
      const FeedbackPoint& q = p.feedback[i];
      EXPECT_EQ(s.chunksPerLoop, q.chunksPerLoop) << "point " << i;
      EXPECT_EQ(s.coreLimit, q.coreLimit) << "point " << i;
      EXPECT_EQ(s.systemWcet, q.systemWcet) << "point " << i;
      EXPECT_EQ(s.tasks, q.tasks) << "point " << i;
    }

    // The full report (minus wall-clock stage timings) is bit-identical.
    EXPECT_EQ(sequential.reportText(/*includeStageTimings=*/false),
              p.reportText(/*includeStageTimings=*/false));
  }
}

TEST_P(ParallelExploreDeterminism, OversubscribedPoolStillDeterministic) {
  // Sixteen runs on a sixteen-thread graph sharing one stage cache, so
  // most stages are computed by one run while the others wait for it or
  // hit: every report still equals the plain call's.
  const model::Diagram diagram = buildApp(GetParam());
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  const std::string sequential =
      Toolchain(platform, ToolchainOptions{}).run(model).reportText(false);
  ToolchainOptions shared;
  shared.cache = std::make_shared<ToolchainCache>();
  const Toolchain toolchain(platform, shared);
  std::vector<std::string> reports(16);
  support::TaskGraph graph;
  for (std::size_t k = 0; k < reports.size(); ++k) {
    graph.addNode("run", [&, k] {
      reports[k] = toolchain.run(model).reportText(false);
    });
  }
  graph.run(16);
  for (const std::string& report : reports) EXPECT_EQ(report, sequential);
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelExploreDeterminism,
                         ::testing::Values("egpws", "weaa", "polka"));

}  // namespace
}  // namespace argo::core
