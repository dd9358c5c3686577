// Determinism regression for the parallel cross-layer feedback
// exploration: evaluating the candidate ladder on a transient thread team
// must be observationally identical to the sequential path — same chosen
// candidate, same FeedbackPoint sequence, same report text.
#include <gtest/gtest.h>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/toolchain.h"

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
  const model::Diagram diagram = buildApp(GetParam());
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  ToolchainOptions sequentialOptions;
  sequentialOptions.explorationThreads = 1;
  const ToolchainResult sequential =
      Toolchain(platform, sequentialOptions).run(model);

  ToolchainOptions pooledOptions;
  pooledOptions.explorationThreads = 4;
  const ToolchainResult pooled =
      Toolchain(platform, pooledOptions).run(model);

  EXPECT_EQ(sequential.chosenChunks, pooled.chosenChunks);
  EXPECT_EQ(sequential.system.makespan, pooled.system.makespan);
  EXPECT_EQ(sequential.sequentialWcet, pooled.sequentialWcet);

  ASSERT_EQ(sequential.feedback.size(), pooled.feedback.size());
  for (std::size_t i = 0; i < sequential.feedback.size(); ++i) {
    const FeedbackPoint& s = sequential.feedback[i];
    const FeedbackPoint& p = pooled.feedback[i];
    EXPECT_EQ(s.chunksPerLoop, p.chunksPerLoop) << "point " << i;
    EXPECT_EQ(s.coreLimit, p.coreLimit) << "point " << i;
    EXPECT_EQ(s.systemWcet, p.systemWcet) << "point " << i;
    EXPECT_EQ(s.tasks, p.tasks) << "point " << i;
  }

  // The full report (minus wall-clock stage timings) is bit-identical.
  EXPECT_EQ(sequential.reportText(/*includeStageTimings=*/false),
            pooled.reportText(/*includeStageTimings=*/false));
}

TEST_P(ParallelExploreDeterminism, OversubscribedPoolStillDeterministic) {
  // More workers than candidates (and repeated runs) must not change the
  // outcome either.
  const model::Diagram diagram = buildApp(GetParam());
  const model::CompiledModel model = diagram.compile();
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  ToolchainOptions options;
  options.explorationThreads = 16;
  const Toolchain toolchain(platform, options);
  const ToolchainResult first = toolchain.run(model);
  const ToolchainResult second = toolchain.run(model);
  EXPECT_EQ(first.chosenChunks, second.chosenChunks);
  EXPECT_EQ(first.reportText(false), second.reportText(false));
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelExploreDeterminism,
                         ::testing::Values("egpws", "weaa", "polka"));

}  // namespace
}  // namespace argo::core
