// Batch-evaluator suite: thread-count determinism of the argo_eval
// report, the cache differentials ({cache on, off} x threads {1, 3, 8},
// in modulo and cross mode, must reproduce a sequential --cache off run
// byte for byte), the cross-product sweep mode, the policy-matrix smoke
// check (every registered policy schedules every generated scenario, no
// unexpected fallbacks), and the JSON shape.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "sched/bnb.h"
#include "sched/policy.h"
#include "scenarios/eval.h"
#include "support/diagnostics.h"

namespace argo {
namespace {

namespace fs = std::filesystem;

/// RAII cache directory for the disk-tier differentials.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    std::string templ =
        (fs::temp_directory_path() / ("argo_eval_" + tag + "_XXXXXX"))
            .string();
    if (mkdtemp(templ.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + templ);
    }
    path = templ;
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// A batch small enough for test time but wide enough to cross several
/// platform cases and both fallback paths.
scenarios::EvalOptions smallBatch() {
  scenarios::EvalOptions options;
  options.generator.seed = 7;
  options.scenarioCount = 5;
  options.simTrials = 1;
  return options;
}

TEST(EvalDeterminism, ReportIsByteIdenticalAcrossThreadCounts) {
  scenarios::EvalOptions options = smallBatch();
  options.threads = 1;
  const std::string sequential = scenarios::runEval(options).toJson();
  for (int threads : {3, 8}) {
    options.threads = threads;
    EXPECT_EQ(scenarios::runEval(options).toJson(), sequential)
        << "threads=" << threads;
  }
}

/// Every {cache on, off} x threads {1, 3, 8} run of `reference` must
/// render the report of its sequential --cache off run byte for byte.
void expectMatchesUncachedSequential(scenarios::EvalOptions reference) {
  reference.cacheEnabled = false;
  reference.threads = 1;
  const std::string oracle = scenarios::runEval(reference).toJson();
  for (const bool cacheEnabled : {false, true}) {
    for (const int threads : {1, 3, 8}) {
      scenarios::EvalOptions options = reference;
      options.cacheEnabled = cacheEnabled;
      options.threads = threads;
      EXPECT_EQ(scenarios::runEval(options).toJson(), oracle)
          << "cache=" << cacheEnabled << " threads=" << threads;
    }
  }
}

TEST(EvalCacheDifferential, CacheOffMatchesCachedDefaultByteForByte) {
  // The cache differential in modulo mode, on a slice wide enough to
  // cross every platform case several times and hit both fallback paths:
  // a sequential uncached run (every unit on a fresh cache of its own) is
  // the oracle. Hits must return bit-identical values, and the graph must
  // assemble the same report whatever the thread count.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 25;
  expectMatchesUncachedSequential(options);
}

TEST(EvalCacheDifferential, CrossModeMatchesAcrossExecutorsAndCache) {
  // The same differential matrix — the graph executor on 1, 3 and 8
  // threads, cache on and off — on the full cross product, where cells
  // sharing a scenario also share the stage prefix through the cache.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 4;
  options.sweepMode = scenarios::SweepMode::Cross;
  expectMatchesUncachedSequential(options);
}

TEST(EvalCacheDifferential, SharedCacheRerunIsByteIdenticalAndAllHits) {
  // The incremental re-sweep pattern: a second batch against an already
  // populated external cache recomputes no schedules and still renders
  // the identical report.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 4;
  options.threads = 8;
  options.cache = std::make_shared<core::ToolchainCache>();
  const std::string first = scenarios::runEval(options).toJson();
  const core::ToolchainCacheStats cold = options.cache->stats();
  const std::string second = scenarios::runEval(options).toJson();
  const core::ToolchainCacheStats warm = options.cache->stats();
  EXPECT_EQ(first, second);
  EXPECT_EQ(cold.schedules.misses, warm.schedules.misses);
  EXPECT_EQ(cold.transforms.misses, warm.transforms.misses);
  EXPECT_GT(warm.schedules.hits, cold.schedules.hits);
}

TEST(EvalDiskCacheDifferential, DiskWarmRerunMatchesCacheOffByteForByte) {
  // The cross-process disk-tier oracle, in-process: every runEval call
  // with a fresh (default) cache over the same --cache-dir models a
  // fresh process — only the directory is shared. Cold populate, then
  // warm reruns across thread counts, all compared byte for byte against
  // an uncached reference.
  scenarios::EvalOptions reference = smallBatch();
  reference.scenarioCount = 3;
  reference.sweepMode = scenarios::SweepMode::Cross;
  reference.cacheEnabled = false;
  reference.threads = 1;
  const std::string oracle = scenarios::runEval(reference).toJson();

  TempCacheDir dir("diskwarm");
  scenarios::EvalOptions cold = reference;
  cold.cacheEnabled = true;
  cold.cacheDir = dir.path;
  cold.threads = 8;
  const scenarios::EvalReport coldReport = scenarios::runEval(cold);
  EXPECT_EQ(coldReport.toJson(), oracle);
  ASSERT_TRUE(coldReport.cacheStats.has_value());
  ASSERT_TRUE(coldReport.cacheStats->disk.has_value());
  EXPECT_GT(coldReport.cacheStats->disk->stores, 0u);
  EXPECT_EQ(coldReport.cacheStats->disk->rejects, 0u);

  for (const int threads : {1, 8}) {
    scenarios::EvalOptions warm = cold;
    warm.threads = threads;
    const scenarios::EvalReport report = scenarios::runEval(warm);
    EXPECT_EQ(report.toJson(), oracle) << "warm threads=" << threads;
    ASSERT_TRUE(report.cacheStats->disk.has_value());
    EXPECT_GT(report.cacheStats->disk->hits, 0u);
    EXPECT_EQ(report.cacheStats->disk->rejects, 0u);
  }
}

TEST(EvalDiskCacheDifferential, ConcurrentWritersSharingOneDirectoryAgree) {
  // Two cold batches racing into ONE cache directory (the two-evals-one-
  // dir scenario of support/disk_cache.h): rename publication means both
  // must still render the uncached reference byte for byte, with zero
  // rejects — a torn record would show up as either.
  scenarios::EvalOptions reference = smallBatch();
  reference.scenarioCount = 4;
  reference.cacheEnabled = false;
  reference.threads = 1;
  const std::string oracle = scenarios::runEval(reference).toJson();

  TempCacheDir dir("diskrace");
  scenarios::EvalOptions racing = reference;
  racing.cacheEnabled = true;
  racing.cacheDir = dir.path;
  racing.threads = 4;

  scenarios::EvalReport reportA, reportB;
  std::thread ta([&] { reportA = scenarios::runEval(racing); });
  std::thread tb([&] { reportB = scenarios::runEval(racing); });
  ta.join();
  tb.join();
  EXPECT_EQ(reportA.toJson(), oracle);
  EXPECT_EQ(reportB.toJson(), oracle);
  ASSERT_TRUE(reportA.cacheStats->disk.has_value());
  ASSERT_TRUE(reportB.cacheStats->disk.has_value());
  EXPECT_EQ(reportA.cacheStats->disk->rejects, 0u);
  EXPECT_EQ(reportB.cacheStats->disk->rejects, 0u);
}

TEST(EvalCrossMode, FullMatrixScenarioMajorAndModuloDefault) {
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 3;
  options.policies = {"heft"};
  const std::size_t cases =
      scenarios::buildPlatformSweep(options.sweep).size();

  // Modulo (the default): one cell per scenario, case i % caseCount.
  const scenarios::EvalReport modulo = scenarios::runEval(options);
  EXPECT_EQ(modulo.sweepMode, scenarios::SweepMode::Modulo);
  EXPECT_EQ(modulo.scenarioCount, 3u);
  EXPECT_EQ(modulo.platformCases, cases);
  ASSERT_EQ(modulo.scenarios.size(), 3u);

  // Cross: every scenario on every case, rows scenario-major.
  options.sweepMode = scenarios::SweepMode::Cross;
  const scenarios::EvalReport cross = scenarios::runEval(options);
  EXPECT_EQ(cross.sweepMode, scenarios::SweepMode::Cross);
  ASSERT_EQ(cross.scenarios.size(), 3u * cases);
  const std::vector<scenarios::PlatformCase> sweep =
      scenarios::buildPlatformSweep(options.sweep);
  for (std::size_t cell = 0; cell < cross.scenarios.size(); ++cell) {
    const scenarios::ScenarioResult& row = cross.scenarios[cell];
    EXPECT_EQ(row.scenario, modulo.scenarios[cell / cases].scenario);
    EXPECT_EQ(row.platformCase, sweep[cell % cases].name);
  }
  // Each modulo cell appears verbatim inside the cross matrix at
  // (scenario, moduloSweepCase(scenario)).
  for (std::size_t s = 0; s < 3u; ++s) {
    const std::size_t at =
        s * cases + scenarios::moduloSweepCase(s, cases);
    EXPECT_EQ(cross.scenarios[at].platformCase,
              modulo.scenarios[s].platformCase);
    ASSERT_FALSE(cross.scenarios[at].outcomes.empty());
    EXPECT_EQ(cross.scenarios[at].outcomes.front().bound,
              modulo.scenarios[s].outcomes.front().bound);
  }
}

TEST(EvalCacheStats, RenderedOnlyWithTimingsAndWhenEnabled) {
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 2;
  options.policies = {"heft"};
  const scenarios::EvalReport cached = scenarios::runEval(options);
  ASSERT_TRUE(cached.cacheStats.has_value());
  // The counters exist but stay out of the canonical report: the
  // hit/wait split depends on thread timing. Under --timings they are
  // keys of the `metrics` block, the report's one stats block.
  const std::string canonical = cached.toJson(false);
  const std::string timed = cached.toJson(true);
  EXPECT_EQ(canonical.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(canonical.find("\"cache."), std::string::npos);
  EXPECT_EQ(timed.find("cache_stats"), std::string::npos);
  for (const char* key :
       {"\"cache.transforms.hits\":", "\"cache.seqwcet.misses\":",
        "\"cache.expand.inflight_waits\":", "\"cache.timings.hits\":",
        "\"cache.schedule.misses\":"}) {
    EXPECT_NE(timed.find(key), std::string::npos) << key;
  }
  // No disk tier attached, so no disk.* keys.
  EXPECT_EQ(timed.find("\"disk.hits\":"), std::string::npos);

  options.cacheEnabled = false;
  const scenarios::EvalReport uncached = scenarios::runEval(options);
  EXPECT_FALSE(uncached.cacheStats.has_value());
  EXPECT_EQ(uncached.toJson(true).find("\"cache.transforms.hits\":"),
            std::string::npos);
}

TEST(EvalPolicyMatrix, EveryRegisteredPolicySchedulesEveryScenario) {
  // A structural bug in the graph (a dropped unit, a missed stage) would
  // surface here before the byte diff does.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 6;
  const scenarios::EvalReport report = scenarios::runEval(options);

  // All registered policies took part.
  EXPECT_EQ(report.policies, sched::registeredPolicyNames());
  ASSERT_EQ(report.scenarios.size(), 6u);
  for (const scenarios::ScenarioResult& row : report.scenarios) {
    ASSERT_EQ(row.outcomes.size(), report.policies.size());
    adl::Cycles bestBound = 0;
    std::string bestPolicy;
    for (const scenarios::PolicyOutcome& outcome : row.outcomes) {
      // Scheduled for real: tasks placed, a positive bound, and the
      // simulator stayed within it.
      EXPECT_GT(outcome.tasks, 0) << row.scenario << "/" << outcome.policy;
      EXPECT_GT(outcome.bound, 0) << row.scenario << "/" << outcome.policy;
      EXPECT_TRUE(outcome.simSafe) << row.scenario << "/" << outcome.policy;
      // The schedule label must belong to the requested policy...
      EXPECT_EQ(outcome.scheduleLabel.rfind(outcome.policy, 0), 0u)
          << row.scenario << ": asked for " << outcome.policy << ", got "
          << outcome.scheduleLabel;
      // ...and the HEFT fallback may fire only where it is *expected*:
      // graphs beyond the exact search's task cap.
      if (outcome.scheduleLabel.find("fallback") != std::string::npos) {
        EXPECT_FALSE(sched::bnbExactSearchFeasible(
            static_cast<std::size_t>(outcome.tasks), options.toolchain.sched))
            << row.scenario << ": fell back at " << outcome.tasks
            << " tasks, within the exact-search cap";
      }
      if (bestPolicy.empty() || outcome.bound < bestBound) {
        bestPolicy = outcome.policy;
        bestBound = outcome.bound;
      }
    }
    EXPECT_EQ(row.winner, bestPolicy) << row.scenario;
  }
  EXPECT_TRUE(report.allSimSafe);
}

TEST(EvalReportJson, ShapeAndTimingsFlag) {
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 2;
  options.policies = {"heft", "annealed"};
  const scenarios::EvalReport report = scenarios::runEval(options);

  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"bench\":\"argo_eval\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
  // One row per (scenario, policy) unit.
  std::size_t rows = 0;
  for (std::size_t at = json.find("{\"scenario\":");
       at != std::string::npos; at = json.find("{\"scenario\":", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 4u);
  // Wall-clock fields only appear on request — they are the one part of
  // the report that legitimately varies run to run.
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  EXPECT_NE(report.toJson(true).find("wall_ms"), std::string::npos);
  // Exactly one winner per scenario.
  std::size_t winners = 0;
  for (std::size_t at = json.find("\"winner\":true"); at != std::string::npos;
       at = json.find("\"winner\":true", at + 1)) {
    ++winners;
  }
  EXPECT_EQ(winners, 2u);
}

TEST(EvalOptionsValidation, UnknownPolicyAndBadCountsThrow) {
  scenarios::EvalOptions unknown = smallBatch();
  unknown.policies = {"does_not_exist"};
  try {
    (void)scenarios::runEval(unknown);
    FAIL() << "expected ToolchainError";
  } catch (const support::ToolchainError& error) {
    // The error names the registered policies, like the CLI requires.
    EXPECT_NE(std::string(error.what()).find("heft"), std::string::npos);
  }

  scenarios::EvalOptions empty = smallBatch();
  empty.scenarioCount = 0;
  EXPECT_THROW((void)scenarios::runEval(empty), support::ToolchainError);
  scenarios::EvalOptions negativeTrials = smallBatch();
  negativeTrials.simTrials = -1;
  EXPECT_THROW((void)scenarios::runEval(negativeTrials),
               support::ToolchainError);
}

TEST(EvalSimTrials, ZeroSkipsTheSimulatorCheck) {
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 1;
  options.simTrials = 0;
  options.policies = {"heft"};
  const scenarios::EvalReport report = scenarios::runEval(options);
  const scenarios::PolicyOutcome& outcome =
      report.scenarios.front().outcomes.front();
  EXPECT_EQ(outcome.observed, 0);
  EXPECT_EQ(outcome.tightness(), 0.0);
  EXPECT_TRUE(outcome.simSafe);
  EXPECT_TRUE(report.allSimSafe);
}

}  // namespace
}  // namespace argo
