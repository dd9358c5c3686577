// Batch-evaluator suite: thread-count determinism of the argo_eval
// report, the fresh-cache differentials (the batch at threads {1, 3, 8},
// in modulo and cross mode, must reproduce every unit run alone on a
// fresh cache, field for field), the disk-tier differentials, the
// cross-product sweep mode, the policy-matrix smoke check (every
// registered policy schedules every generated scenario, no unexpected
// fallbacks), the JSON shape, and the shape of the batch graph (one node
// per unit after its cell's prefix; a unit's eval span closes before its
// simulator span opens).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/toolchain.h"
#include "ir/evaluator.h"
#include "sched/bnb.h"
#include "sched/policy.h"
#include "scenarios/eval.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/trace.h"

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

/// The fresh-cache oracle: every (cell, policy) unit of `options`, in
/// the batch's unit order (cells as runEval lays them out, policies
/// innermost), run alone through its own core::Toolchain::run with no
/// cache attached, then probed the way runEval probes a unit: the same
/// per-trial input seeds, the worst simulated makespan, and whether every
/// trial stayed within the bound. wallMs stays 0.
std::vector<scenarios::PolicyOutcome> runUnitsAlone(
    const scenarios::EvalOptions& options) {
  const std::vector<scenarios::PlatformCase> sweep =
      scenarios::buildPlatformSweep(options.sweep);
  const std::vector<std::string> policies =
      options.policies.empty() ? sched::registeredPolicyNames()
                               : options.policies;
  std::vector<scenarios::PolicyOutcome> outcomes;
  for (int s = 0; s < options.scenarioCount; ++s) {
    const scenarios::Scenario scenario =
        scenarios::generateScenario(options.generator, s);
    std::vector<std::size_t> cases;
    if (options.sweepMode == scenarios::SweepMode::Modulo) {
      cases.push_back(scenarios::moduloSweepCase(
          static_cast<std::size_t>(s), sweep.size()));
    } else {
      for (std::size_t c = 0; c < sweep.size(); ++c) cases.push_back(c);
    }
    for (const std::size_t c : cases) {
      const adl::Platform& platform = sweep[c].platform;
      for (const std::string& policy : policies) {
        core::ToolchainOptions toolchainOptions = options.toolchain;
        toolchainOptions.sched.policy = policy;
        toolchainOptions.sched.interferenceAware =
            policy != "contention_oblivious";
        const core::ToolchainResult result =
            core::Toolchain(platform, toolchainOptions).run(scenario.model);

        scenarios::PolicyOutcome outcome;
        outcome.policy = policy;
        outcome.scheduleLabel = result.schedule.policy;
        outcome.tasks = static_cast<int>(result.graph->tasks.size());
        outcome.tilesUsed = result.schedule.tilesUsed;
        outcome.chosenChunks = result.chosenChunks;
        outcome.sequentialWcet = result.sequentialWcet;
        outcome.bound = result.system.makespan;
        const sim::Simulator simulator(result.program, platform);
        ir::Environment base = ir::makeZeroEnvironment(*result.fn);
        for (const auto& [name, value] : result.constants) base[name] = value;
        for (int trial = 0; trial < options.simTrials; ++trial) {
          ir::Environment env = base;
          support::Rng rng(scenario.seed + static_cast<std::uint64_t>(trial));
          for (const ir::VarDecl& decl : result.fn->decls()) {
            if (decl.role != ir::VarRole::Input) continue;
            ir::Value& value = env[decl.name];
            for (std::int64_t i = 0; i < value.size(); ++i) {
              value.setFloat(i, rng.uniformDouble() * 2.0 - 1.0);
            }
          }
          const adl::Cycles makespan = simulator.step(env).makespan;
          if (makespan > outcome.observed) outcome.observed = makespan;
          outcome.simSafe = outcome.simSafe && makespan <= outcome.bound;
        }
        outcomes.push_back(std::move(outcome));
      }
    }
  }
  return outcomes;
}

/// Every PolicyOutcome field except wallMs, on one line.
std::string describe(const scenarios::PolicyOutcome& o) {
  std::ostringstream os;
  os << o.policy << " schedule=" << o.scheduleLabel << " tasks=" << o.tasks
     << " tiles=" << o.tilesUsed << " chunks=" << o.chosenChunks
     << " seq=" << o.sequentialWcet << " bound=" << o.bound
     << " observed=" << o.observed << " safe=" << o.simSafe;
  return os.str();
}

/// The batch of `options` at threads 1, 3 and 8 must reproduce
/// runUnitsAlone unit for unit, and render one report byte for byte.
void expectMatchesUnitsRunAlone(scenarios::EvalOptions options) {
  const std::vector<scenarios::PolicyOutcome> oracle = runUnitsAlone(options);
  std::string firstJson;
  for (const int threads : {1, 3, 8}) {
    options.threads = threads;
    const scenarios::EvalReport report = scenarios::runEval(options);
    std::size_t unit = 0;
    for (const scenarios::ScenarioResult& row : report.scenarios) {
      for (const scenarios::PolicyOutcome& outcome : row.outcomes) {
        ASSERT_LT(unit, oracle.size()) << "threads=" << threads;
        EXPECT_EQ(describe(outcome), describe(oracle[unit]))
            << row.scenario << " on " << row.platformCase
            << " threads=" << threads;
        ++unit;
      }
    }
    EXPECT_EQ(unit, oracle.size()) << "threads=" << threads;
    const std::string json = report.toJson();
    if (firstJson.empty()) firstJson = json;
    EXPECT_EQ(json, firstJson) << "threads=" << threads;
  }
}

TEST(EvalCacheDifferential, CacheOffMatchesCachedDefaultByteForByte) {
  // The fresh-cache differential in modulo mode, on a slice wide enough
  // to cross every platform case several times and hit both fallback
  // paths: every unit run alone, with nothing shared, is the oracle. A
  // hit on the batch's shared cache must return the value a fresh
  // computation would, whatever the thread count.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 25;
  expectMatchesUnitsRunAlone(options);
}

TEST(EvalCacheDifferential, CrossModeMatchesAcrossExecutorsAndCache) {
  // The same differential on the full cross product, where cells sharing
  // a scenario also share the stage prefix through the cache.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 4;
  options.sweepMode = scenarios::SweepMode::Cross;
  expectMatchesUnitsRunAlone(options);
}

TEST(EvalCacheDifferential, SharedCacheRerunIsByteIdenticalAndAllHits) {
  // The incremental re-sweep pattern: a second batch over the first
  // batch's cache directory loads every stage from disk, computes and
  // stores nothing, and still renders the identical report.
  TempCacheDir dir("rerun");
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 4;
  options.threads = 8;
  options.cacheDir = dir.path;
  const scenarios::EvalReport first = scenarios::runEval(options);
  const scenarios::EvalReport second = scenarios::runEval(options);
  EXPECT_EQ(first.toJson(), second.toJson());
  ASSERT_TRUE(second.cacheStats.disk.has_value());
  EXPECT_GT(second.cacheStats.disk->hits, 0u);
  EXPECT_EQ(second.cacheStats.disk->misses, 0u);
  EXPECT_EQ(second.cacheStats.disk->stores, 0u);
}

TEST(EvalDiskCacheDifferential, DiskWarmRerunMatchesCacheOffByteForByte) {
  // The cross-process disk-tier oracle, in-process: every runEval call
  // with a fresh batch cache over the same --cache-dir models a fresh
  // process — only the directory is shared. Cold populate, then warm
  // reruns across thread counts, all compared byte for byte against a
  // sequential in-memory batch (no disk tier).
  scenarios::EvalOptions reference = smallBatch();
  reference.scenarioCount = 3;
  reference.sweepMode = scenarios::SweepMode::Cross;
  reference.threads = 1;
  const std::string oracle = scenarios::runEval(reference).toJson();

  TempCacheDir dir("diskwarm");
  scenarios::EvalOptions cold = reference;
  cold.cacheDir = dir.path;
  cold.threads = 8;
  const scenarios::EvalReport coldReport = scenarios::runEval(cold);
  EXPECT_EQ(coldReport.toJson(), oracle);
  ASSERT_TRUE(coldReport.cacheStats.disk.has_value());
  EXPECT_GT(coldReport.cacheStats.disk->stores, 0u);
  EXPECT_EQ(coldReport.cacheStats.disk->rejects, 0u);

  for (const int threads : {1, 8}) {
    scenarios::EvalOptions warm = cold;
    warm.threads = threads;
    const scenarios::EvalReport report = scenarios::runEval(warm);
    EXPECT_EQ(report.toJson(), oracle) << "warm threads=" << threads;
    ASSERT_TRUE(report.cacheStats.disk.has_value());
    EXPECT_GT(report.cacheStats.disk->hits, 0u);
    EXPECT_EQ(report.cacheStats.disk->rejects, 0u);
  }
}

TEST(EvalDiskCacheDifferential, ConcurrentWritersSharingOneDirectoryAgree) {
  // Two cold batches racing into ONE cache directory (the two-evals-one-
  // dir scenario of support/disk_cache.h): rename publication means both
  // must still render the in-memory reference byte for byte, with zero
  // rejects — a torn record would show up as either.
  scenarios::EvalOptions reference = smallBatch();
  reference.scenarioCount = 4;
  reference.threads = 1;
  const std::string oracle = scenarios::runEval(reference).toJson();

  TempCacheDir dir("diskrace");
  scenarios::EvalOptions racing = reference;
  racing.cacheDir = dir.path;
  racing.threads = 4;

  scenarios::EvalReport reportA, reportB;
  std::thread ta([&] { reportA = scenarios::runEval(racing); });
  std::thread tb([&] { reportB = scenarios::runEval(racing); });
  ta.join();
  tb.join();
  EXPECT_EQ(reportA.toJson(), oracle);
  EXPECT_EQ(reportB.toJson(), oracle);
  ASSERT_TRUE(reportA.cacheStats.disk.has_value());
  ASSERT_TRUE(reportB.cacheStats.disk.has_value());
  EXPECT_EQ(reportA.cacheStats.disk->rejects, 0u);
  EXPECT_EQ(reportB.cacheStats.disk->rejects, 0u);
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
  // The counters of the batch cache always exist but stay out of the
  // canonical report: the hit/wait split depends on thread timing. Under
  // --timings they are keys of the `metrics` block, the report's one
  // stats block.
  EXPECT_GT(cached.cacheStats.transforms.hits, 0u);
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
  EXPECT_FALSE(cached.cacheStats.disk.has_value());
  EXPECT_EQ(timed.find("\"disk.hits\":"), std::string::npos);
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
    int atBest = 0;
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
            static_cast<std::size_t>(outcome.tasks)))
            << row.scenario << ": fell back at " << outcome.tasks
            << " tasks, within the exact-search cap";
      }
      if (bestPolicy.empty() || outcome.bound < bestBound) {
        bestPolicy = outcome.policy;
        bestBound = outcome.bound;
        atBest = 1;
      } else if (outcome.bound == bestBound) {
        ++atBest;
      }
    }
    // A winner only for a strict minimum; a tie has none.
    EXPECT_EQ(row.bestBound, bestBound) << row.scenario;
    EXPECT_EQ(row.winner, atBest == 1 ? bestPolicy : "") << row.scenario;
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
  // Every policy at a cell's minimum bound is "best"; a cell has a
  // "winner" only when exactly one policy is, and that row is also best.
  const auto count = [&json](const std::string& needle) {
    std::size_t found = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++found;
    }
    return found;
  };
  std::size_t bestRows = 0;
  std::size_t strictCells = 0;
  for (const scenarios::ScenarioResult& row : report.scenarios) {
    std::size_t best = 0;
    for (const scenarios::PolicyOutcome& o : row.outcomes) {
      best += o.bound == row.bestBound ? 1 : 0;
    }
    EXPECT_GE(best, 1u) << row.scenario;
    EXPECT_EQ(row.winner.empty(), best > 1) << row.scenario;
    bestRows += best;
    strictCells += best == 1 ? 1 : 0;
  }
  EXPECT_EQ(count("\"best\":true"), bestRows);
  EXPECT_EQ(count("\"winner\":true"), strictCells);
  EXPECT_EQ(count("\"best\":true,\"winner\":true"), strictCells);
  EXPECT_EQ(count("\"shared_best\":"), 2u);
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

TEST(EvalTaskGraph, OneNodePerUnitAfterItsCellPrefix) {
  // S scenario nodes, then per cell one prefix node and one node per
  // policy that runs the tool-chain and the simulator.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 2;
  options.sweepMode = scenarios::SweepMode::Cross;
  options.sweep.coreCounts = {2};
  options.policies = {"heft", "contention_oblivious"};
  const support::MetricCounter& nodesRun =
      support::MetricsRegistry::global().counter("graph.nodes_run");
  const std::uint64_t before = nodesRun.value();
  const scenarios::EvalReport report = scenarios::runEval(options);
  const std::uint64_t scenarioNodes = report.scenarioCount;
  const std::uint64_t cells = report.scenarios.size();
  const std::uint64_t policies = report.policies.size();
  ASSERT_EQ(cells, 2u * report.platformCases);
  EXPECT_EQ(nodesRun.value() - before,
            scenarioNodes + cells * (policies + 1));
}

TEST(EvalTrace, UnitSpanClosesBeforeItsSimulatorSpan) {
  // perfbench adds a unit's `eval` and `sim` spans, so the simulator probes
  // must run after the unit's eval span has closed, never inside it.
  scenarios::EvalOptions options = smallBatch();
  options.scenarioCount = 3;
  options.policies = {"heft", "contention_oblivious"};
  support::TraceRecorder& recorder = support::TraceRecorder::global();
  for (const int threads : {1, 3}) {
    options.threads = threads;
    recorder.reset();
    recorder.enable();
    const scenarios::EvalReport report = scenarios::runEval(options);
    recorder.disable();
    const std::vector<support::TraceEventView> events = recorder.snapshot();
    recorder.reset();

    std::vector<const support::TraceEventView*> evals;
    std::vector<const support::TraceEventView*> sims;
    for (const support::TraceEventView& event : events) {
      if (event.phase != 'X') continue;
      if (event.category == "eval") evals.push_back(&event);
      if (event.category == "sim") sims.push_back(&event);
    }
    EXPECT_EQ(sims.size(), report.scenarios.size() * report.policies.size())
        << "threads=" << threads;
    for (const support::TraceEventView* sim : sims) {
      for (const support::TraceEventView* eval : evals) {
        const bool inside = sim->tid == eval->tid &&
                            sim->startNs >= eval->startNs &&
                            sim->startNs < eval->startNs + eval->durNs;
        EXPECT_FALSE(inside) << "sim span " << sim->name
                             << " opens inside eval span " << eval->name
                             << " (threads=" << threads << ")";
      }
    }
  }
}

}  // namespace
}  // namespace argo
