#include "scenarios/eval.h"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "core/metrics_report.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"
#include "support/graph.h"
#include "support/rng.h"
#include "support/trace.h"

namespace argo::scenarios {

namespace {

using support::ToolchainError;

/// Fills every Input-role variable of `env` with uniform values in
/// [-1, 1), drawn from a stream seeded by (scenario seed, trial). Input
/// order follows the declaration order, so the stream is reproducible.
void setRandomInputs(const ir::Function& fn, ir::Environment& env,
                     std::uint64_t seed) {
  support::Rng rng(seed);
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.role != ir::VarRole::Input) continue;
    ir::Value& value = env[decl.name];
    for (std::int64_t i = 0; i < value.size(); ++i) {
      value.setFloat(i, rng.uniformDouble() * 2.0 - 1.0);
    }
  }
}

/// Tool-chain stage of one (scenario, policy) unit. The finished
/// ToolchainResult is parked in `keep` for the simulator stage (a separate
/// node on the graph executor), which consumes and releases it.
PolicyOutcome runToolchainStage(
    const Scenario& scenario, const adl::Platform& platform,
    const std::string& policy, const EvalOptions& options,
    const std::shared_ptr<core::ToolchainCache>& cache,
    std::optional<core::ToolchainResult>& keep) {
  // Per-unit span; the name is only materialized when tracing is on, so
  // the disabled path stays allocation-free. The nested "toolchain" and
  // "cache" spans carry the stage-level breakdown.
  support::TraceSpan span(
      "eval", support::TraceRecorder::enabled()
                  ? "unit/" + scenario.name + "/" + policy
                  : std::string());
  const auto begin = std::chrono::steady_clock::now();

  core::ToolchainOptions toolchainOptions = options.toolchain;
  toolchainOptions.sched.policy = policy;
  toolchainOptions.sched.interferenceAware = policy != "contention_oblivious";
  // The batch owns the pool; everything inside a unit stays inline.
  toolchainOptions.explorationThreads = 1;
  toolchainOptions.sched.parallelThreads = 1;
  toolchainOptions.cache = cache;

  const core::Toolchain toolchain(platform, toolchainOptions);
  keep = toolchain.run(scenario.model);
  const core::ToolchainResult& result = *keep;

  PolicyOutcome outcome;
  outcome.policy = policy;
  outcome.scheduleLabel = result.schedule.policy;
  outcome.tasks = static_cast<int>(result.graph->tasks.size());
  outcome.tilesUsed = result.schedule.tilesUsed;
  outcome.chosenChunks = result.chosenChunks;
  outcome.sequentialWcet = result.sequentialWcet;
  outcome.bound = result.system.makespan;

  const auto end = std::chrono::steady_clock::now();
  outcome.wallMs =
      std::chrono::duration<double, std::milli>(end - begin).count();
  return outcome;
}

/// Simulator stage of one unit: probes the bound of the parked toolchain
/// result with seeded random inputs, then releases the result.
void runSimStage(const Scenario& scenario, const adl::Platform& platform,
                 const EvalOptions& options,
                 std::optional<core::ToolchainResult>& keep,
                 PolicyOutcome& outcome) {
  const auto begin = std::chrono::steady_clock::now();
  const core::ToolchainResult& result = *keep;

  if (options.simTrials > 0) {
    // One span per simulator trial batch (all trials of one unit).
    support::TraceSpan span(
        "sim", support::TraceRecorder::enabled()
                   ? scenario.name + "/" + outcome.policy
                   : std::string());
    if (span.active()) span.arg("trials", std::to_string(options.simTrials));
    const sim::Simulator simulator(result.program, platform);
    ir::Environment base = ir::makeZeroEnvironment(*result.fn);
    for (const auto& [name, value] : result.constants) base[name] = value;
    for (int trial = 0; trial < options.simTrials; ++trial) {
      ir::Environment env = base;
      setRandomInputs(*result.fn, env,
                      scenario.seed + static_cast<std::uint64_t>(trial));
      const Cycles makespan = simulator.step(env).makespan;
      if (makespan > outcome.observed) outcome.observed = makespan;
      outcome.simSafe = outcome.simSafe && makespan <= outcome.bound;
    }
  }

  keep.reset();  // the unit's heavyweight state dies with its last stage
  const auto end = std::chrono::steady_clock::now();
  outcome.wallMs +=
      std::chrono::duration<double, std::milli>(end - begin).count();
}

/// One (scenario, sweep case) cell of the evaluation grid. Modulo mode
/// pairs scenario s with moduloSweepCase(s, C); Cross mode enumerates the
/// full product scenario-major. Everything downstream — the graph nodes
/// and the report assembly — walks this one list, so the pairing rule has
/// exactly one definition.
struct EvalCell {
  std::size_t scenario = 0;
  std::size_t sweepCase = 0;
};

std::vector<EvalCell> buildEvalCells(std::size_t scenarioCount,
                                     std::size_t sweepCases, SweepMode mode) {
  std::vector<EvalCell> cells;
  if (mode == SweepMode::Modulo) {
    cells.reserve(scenarioCount);
    for (std::size_t s = 0; s < scenarioCount; ++s) {
      cells.push_back(EvalCell{s, moduloSweepCase(s, sweepCases)});
    }
  } else {
    cells.reserve(scenarioCount * sweepCases);
    for (std::size_t s = 0; s < scenarioCount; ++s) {
      for (std::size_t c = 0; c < sweepCases; ++c) {
        cells.push_back(EvalCell{s, c});
      }
    }
  }
  return cells;
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (needed > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(needed) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(needed));
  }
  va_end(args);
}

/// Minimal JSON string escaping (names are generated, but a custom policy
/// name could contain anything).
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

const char* sweepModeName(SweepMode mode) noexcept {
  return mode == SweepMode::Modulo ? "modulo" : "cross";
}

core::ToolchainOptions defaultEvalToolchainOptions() {
  core::ToolchainOptions options;
  options.chunkCandidates = {1, 2, 4};
  options.sched.saIterations = 1200;
  // The exact search dominates batch wall time with the stock 2M-node
  // budget; 100k nodes still finds the optimum on most generated graphs
  // and exhaustion is deterministic (labelled "(budget)").
  options.sched.bnbNodeBudget = 100'000;
  options.explorationThreads = 1;
  return options;
}

EvalReport runEval(const EvalOptions& options) {
  if (options.scenarioCount <= 0) {
    throw ToolchainError("runEval: scenarioCount must be positive");
  }
  if (options.simTrials < 0) {
    throw ToolchainError("runEval: simTrials must be >= 0");
  }

  EvalReport report;
  report.seed = options.generator.seed;
  report.policies = options.policies.empty() ? sched::registeredPolicyNames()
                                             : options.policies;
  // Fail on unknown names before spending any tool-chain time.
  for (const std::string& policy : report.policies) {
    (void)sched::policyOrThrow(policy);
  }

  const std::size_t scenarioCount =
      static_cast<std::size_t>(options.scenarioCount);
  const std::size_t policyCount = report.policies.size();

  // The sweep is built up front (it is cheap and every mode needs its
  // size to lay out the grid); the cell list is the one definition of the
  // scenario/platform pairing for graph nodes and assembly alike.
  const std::vector<PlatformCase> sweep = buildPlatformSweep(options.sweep);
  const std::vector<EvalCell> cells =
      buildEvalCells(scenarioCount, sweep.size(), options.sweepMode);
  const std::size_t units = cells.size() * policyCount;

  report.sweepMode = options.sweepMode;
  report.scenarioCount = scenarioCount;
  report.platformCases = sweep.size();

  // One stage cache shared by the whole batch (or by many batches, when
  // the caller passed one in); without it every unit's toolchain run uses
  // a private cache. Stage values are pure functions of their keyed
  // inputs, so sharing never changes the report bytes — only how often
  // work is recomputed.
  std::shared_ptr<core::ToolchainCache> cache;
  if (options.cacheEnabled) {
    cache = options.cache != nullptr ? options.cache
                                     : std::make_shared<core::ToolchainCache>();
    if (!options.cacheDir.empty() && cache->disk() == nullptr) {
      cache->attachDisk(options.cacheDir);
    }
  }

  // Every stage writes its own slot; the assembly below reads them
  // strictly in unit order, so the execution order is invisible to the
  // report.
  std::vector<PolicyOutcome> slots(units);
  std::vector<Scenario> scenarioSlots(scenarioCount);

  // Dependency-graph execution (support/graph.h): each scenario's
  // generation is a shared upstream node; each unit is a toolchain-stage
  // node feeding a simulator-stage node. Scenario A's simulation overlaps
  // scenario B's toolchain stage — there is no batch-wide rendezvous
  // until the sinks. With the batch cache, every cell also gets a prefix
  // node (Toolchain::warmSharedStages) that its per-policy toolchain
  // nodes fan out from, so the shared stage prefix is computed once per
  // cell instead of per policy.
  std::vector<std::optional<core::ToolchainResult>> parked(units);
  support::TaskGraph graph;
  std::vector<support::TaskGraph::NodeId> scenarioNodes(scenarioCount);
  for (std::size_t s = 0; s < scenarioCount; ++s) {
    scenarioNodes[s] = graph.addNode("scenario/" + std::to_string(s), [&, s] {
      scenarioSlots[s] =
          generateScenario(options.generator, static_cast<int>(s));
    });
  }
  for (std::size_t cellIndex = 0; cellIndex < cells.size(); ++cellIndex) {
    const EvalCell& cell = cells[cellIndex];
    const std::string cellTag =
        std::to_string(cell.scenario) + "/" + sweep[cell.sweepCase].name;
    support::TaskGraph::NodeId prefixNode{};
    if (cache != nullptr) {
      prefixNode = graph.addNode("prefix/" + cellTag, [&, cellIndex] {
        const EvalCell& c = cells[cellIndex];
        core::ToolchainOptions warm = options.toolchain;
        warm.explorationThreads = 1;
        warm.sched.parallelThreads = 1;
        warm.cache = cache;
        core::Toolchain(sweep[c.sweepCase].platform, warm)
            .warmSharedStages(scenarioSlots[c.scenario].model);
      });
      graph.addEdge(scenarioNodes[cell.scenario], prefixNode);
    }
    for (std::size_t p = 0; p < policyCount; ++p) {
      const std::size_t unit = cellIndex * policyCount + p;
      const std::string& policy = report.policies[p];
      const auto toolchainNode = graph.addNode(
          "toolchain/" + cellTag + "/" + policy, [&, cellIndex, unit, p] {
            const EvalCell& c = cells[cellIndex];
            slots[unit] = runToolchainStage(
                scenarioSlots[c.scenario], sweep[c.sweepCase].platform,
                report.policies[p], options, cache, parked[unit]);
          });
      graph.addEdge(scenarioNodes[cell.scenario], toolchainNode);
      if (cache != nullptr) graph.addEdge(prefixNode, toolchainNode);
      const auto simNode = graph.addNode(
          "sim/" + cellTag + "/" + policy, [&, cellIndex, unit] {
            const EvalCell& c = cells[cellIndex];
            runSimStage(scenarioSlots[c.scenario],
                        sweep[c.sweepCase].platform, options, parked[unit],
                        slots[unit]);
          });
      graph.addEdge(toolchainNode, simNode);
    }
  }
  graph.run(options.threads);

  // Ladder-order assembly: strictly in unit order, strict < for the
  // winner, so the report is identical however the units were executed.
  report.scenarios.reserve(cells.size());
  for (std::size_t cellIndex = 0; cellIndex < cells.size(); ++cellIndex) {
    const EvalCell& cell = cells[cellIndex];
    const Scenario& scenario = scenarioSlots[cell.scenario];
    const PlatformCase& platformCase = sweep[cell.sweepCase];
    ScenarioResult row;
    row.scenario = scenario.name;
    row.seed = scenario.seed;
    row.layers = scenario.layers;
    row.nodes = scenario.nodes;
    row.arrayLen = scenario.arrayLen;
    row.platformCase = platformCase.name;
    row.cores = platformCase.platform.coreCount();
    Cycles bestBound = 0;
    for (std::size_t p = 0; p < policyCount; ++p) {
      PolicyOutcome outcome = std::move(slots[cellIndex * policyCount + p]);
      report.allSimSafe = report.allSimSafe && outcome.simSafe;
      if (row.winner.empty() || outcome.bound < bestBound) {
        row.winner = outcome.policy;
        bestBound = outcome.bound;
      }
      row.outcomes.push_back(std::move(outcome));
    }
    report.scenarios.push_back(std::move(row));
  }
  if (cache != nullptr) report.cacheStats = cache->stats();
  return report;
}

std::string EvalReport::toJson(bool includeTimings) const {
  std::string out;
  out.reserve(4096);
  appendf(out, "{\"bench\":\"argo_eval\",\"seed\":%" PRIu64
               ",\"scenario_count\":%zu,\"sweep_mode\":\"%s\","
               "\"platform_cases\":%zu,\"policies\":[",
          seed, scenarioCount, sweepModeName(sweepMode), platformCases);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    appendf(out, "%s\"%s\"", p == 0 ? "" : ",",
            jsonEscape(policies[p]).c_str());
  }
  out += "],\"rows\":[";

  struct Aggregate {
    int wins = 0;
    int rows = 0;
    double tightnessSum = 0.0;
    double speedupSum = 0.0;
    double wallMsSum = 0.0;
  };
  std::map<std::string, Aggregate> aggregates;
  double totalWallMs = 0.0;

  bool firstRow = true;
  for (const ScenarioResult& row : scenarios) {
    for (const PolicyOutcome& o : row.outcomes) {
      appendf(out, "%s{\"scenario\":\"%s\",\"seed\":%" PRIu64
                   ",\"platform\":\"%s\",\"cores\":%d,\"layers\":%d,"
                   "\"nodes\":%d,\"array_len\":%d",
              firstRow ? "" : ",", jsonEscape(row.scenario).c_str(), row.seed,
              jsonEscape(row.platformCase).c_str(), row.cores, row.layers,
              row.nodes, row.arrayLen);
      firstRow = false;
      appendf(out, ",\"policy\":\"%s\",\"schedule\":\"%s\",\"tasks\":%d,"
                   "\"tiles_used\":%d,\"chunks\":%d",
              jsonEscape(o.policy).c_str(),
              jsonEscape(o.scheduleLabel).c_str(), o.tasks, o.tilesUsed,
              o.chosenChunks);
      appendf(out, ",\"sequential_wcet\":%lld,\"bound\":%lld,"
                   "\"observed\":%lld,\"sim_safe\":%s,\"tightness\":%.6f,"
                   "\"bound_speedup\":%.6f,\"winner\":%s",
              static_cast<long long>(o.sequentialWcet),
              static_cast<long long>(o.bound),
              static_cast<long long>(o.observed), o.simSafe ? "true" : "false",
              o.tightness(), o.boundSpeedup(),
              o.policy == row.winner ? "true" : "false");
      if (includeTimings) appendf(out, ",\"wall_ms\":%.3f", o.wallMs);
      out += "}";

      Aggregate& agg = aggregates[o.policy];
      agg.rows += 1;
      agg.wins += o.policy == row.winner ? 1 : 0;
      agg.tightnessSum += o.tightness();
      agg.speedupSum += o.boundSpeedup();
      agg.wallMsSum += o.wallMs;
      totalWallMs += o.wallMs;
    }
  }

  out += "],\"summary\":{\"per_policy\":[";
  // Emit in request order (aggregates is keyed by name; request order is
  // the stable, documented order).
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const Aggregate& agg = aggregates[policies[p]];
    appendf(out, "%s{\"policy\":\"%s\",\"wins\":%d,\"mean_tightness\":%.6f,"
                 "\"mean_bound_speedup\":%.6f",
            p == 0 ? "" : ",", jsonEscape(policies[p]).c_str(), agg.wins,
            agg.rows > 0 ? agg.tightnessSum / agg.rows : 0.0,
            agg.rows > 0 ? agg.speedupSum / agg.rows : 0.0);
    if (includeTimings) appendf(out, ",\"wall_ms\":%.3f", agg.wallMsSum);
    out += "}";
  }
  appendf(out, "],\"all_sim_safe\":%s", allSimSafe ? "true" : "false");
  if (includeTimings) {
    // The unified metrics namespace (docs/OBSERVABILITY.md): the process
    // registry snapshot plus the batch cache's per-stage and disk-tier
    // counters under the kDiskStage* names. Same opt-in gate as every
    // other wall-clock-style field: the hit/wait split depends on thread
    // timing.
    core::appendMetricsJson(out, cacheStats);
    appendf(out, ",\"total_wall_ms\":%.3f", totalWallMs);
  }
  out += "}}";
  return out;
}

}  // namespace argo::scenarios
