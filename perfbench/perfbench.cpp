// The benchmark program of the ARGO tool-chain.
//
// Runs one workload for a time budget, checks every output, and prints
// the raw measurements as one JSON object on stdout. perfbench/run.py
// builds this program and turns that object into the benchmark's
// metrics; perfbench/README.md describes the workloads, the metrics and
// the traced run.
//
//   argo_perfbench --workload matrix50|resweep|apps_compile --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// Every workload is a closed loop driven by this one process: the next
// point starts when the previous one has finished. An untraced run first
// starts the speed probe (speed.h), which samples how fast the CPUs under
// the workload run, so metrics.py can report times at reference speed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "codegen/codegen.h"
#include "core/cache.h"
#include "core/toolchain.h"
#include "ir/evaluator.h"
#include "ir/printer.h"
#include "scenarios/eval.h"
#include "scenarios/generator.h"
#include "scenarios/sweep.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/trace.h"
#include "speed.h"
#include "walk.h"

namespace {

using namespace argo;
using perfbench::LayerSpan;
using Clock = std::chrono::steady_clock;

/// Scenario family of the two runEval workloads: the reference matrix of
/// the repo's CI and bench/BENCH_eval.seed.json. Pinned because pass cost
/// differs by up to a third between generator seeds; --seed drives the
/// inputs that leave the amount of work unchanged (see README.md).
constexpr std::uint64_t kScenarioFamily = 7;
/// Batch threads of the resweep workload (nproc of the reference machine).
constexpr int kResweepThreads = 4;
/// Recorded input steps per app point, as argo_cc --emit-steps defaults.
constexpr int kAppSteps = 3;
const std::vector<std::string> kApps = {"egpws", "weaa", "polka"};
/// Point samples a run needs so that at least 10 lie beyond p90.
constexpr std::size_t kMinPointSamples = 100;

double secondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto toSeconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workDir;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      haveSeed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.workDir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.workload != "matrix50" && args.workload != "resweep" &&
      args.workload != "apps_compile") {
    throw std::runtime_error("unknown workload '" + args.workload + "'");
  }
  if (!haveSeed || args.seconds <= 0.0 || args.workDir.empty()) {
    throw std::runtime_error("--seed, --seconds > 0 and --work-dir are required");
  }
  return args;
}

/// Calls, total and self time of every span sharing one key.
struct SpanTotals {
  std::int64_t calls = 0;
  double ms = 0.0;
  double selfMs = 0.0;
};

/// The raw measurements of one run.
struct Run {
  int threads = 1;
  /// Samples the CPUs' speed during an untraced run; null while tracing.
  const perfbench::SpeedProbe* probe = nullptr;
  std::vector<double> setupS;
  /// When each set-up and pass began and ended, in probe seconds, so
  /// metrics.py can match them with the probe's samples.
  std::vector<double> setupBeginS;
  std::vector<double> setupEndS;
  std::vector<double> passBeginS;
  std::vector<double> passEndS;
  std::vector<double> passWallS;
  std::vector<double> passCpuS;
  std::vector<std::int64_t> passPoints;
  std::vector<double> pointMs;
  /// sequential WCET / bound of every (point, policy) outcome of one pass.
  std::vector<double> speedups;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Traced run only.
  int tracedPasses = 0;
  double tracedS = 0.0;
  double untracedS = 0.0;
  std::int64_t walkedUnits = 0;
  std::map<std::string, double> counters;
  std::map<std::string, SpanTotals> spans;
};

/// Counts one attempted point; a non-empty `problem` fails it.
void accountPoint(Run& run, const std::string& point,
                  const std::string& problem) {
  ++run.attempted;
  if (problem.empty()) return;
  if (++run.failed <= 5) {
    std::fprintf(stderr, "perfbench: point %s failed: %s\n", point.c_str(),
                 problem.c_str());
  }
}

/// True while another pass fits the time budget, judged by the length of
/// the last of the `passes` made so far. A run makes at least `minPasses`.
bool anotherPass(std::size_t passes, double lastPassS, Clock::time_point begin,
                 double seconds, std::size_t minPasses) {
  return passes < minPasses || secondsSince(begin) + lastPassS <= seconds;
}

bool anotherTimedPass(const Run& run, Clock::time_point begin, double seconds,
                      std::size_t minPasses) {
  return anotherPass(run.passWallS.size(),
                     run.passWallS.empty() ? 0.0 : run.passWallS.back(), begin,
                     seconds, minPasses);
}

/// Process CPU seconds spent outside the speed probe.
double workloadCpuSeconds(const Run& run) {
  return cpuSeconds() - (run.probe != nullptr ? run.probe->cpuSeconds() : 0.0);
}

/// Records when an untraced pass began and ended.
void recordPassWindow(Run& run, Clock::time_point begin, Clock::time_point end) {
  run.passBeginS.push_back(run.probe->secondsAt(begin));
  run.passEndS.push_back(run.probe->secondsAt(end));
}

/// Times `once` repeatedly, at least three times and for at least one
/// second in total, so the reported median is not a single sample and a
/// millisecond set-up is not timed only while the process is still cold.
template <typename Fn>
void timeSetup(Run& run, Fn&& once) {
  double total = 0.0;
  while (run.setupS.size() < 3 || total < 1.0) {
    const auto begin = Clock::now();
    once();
    const auto end = Clock::now();
    run.setupS.push_back(std::chrono::duration<double>(end - begin).count());
    run.setupBeginS.push_back(run.probe->secondsAt(begin));
    run.setupEndS.push_back(run.probe->secondsAt(end));
    total += run.setupS.back();
  }
}

// ---- Tracing --------------------------------------------------------------

/// Span key: category plus the name up to its first '/', so per-point
/// names ("unit/scn003/heft", "prefix/3/noc_c4") fold into one row.
/// Simulator batches are named by their unit alone and fold into one key.
std::string spanKey(const support::TraceEventView& event) {
  if (event.category == "sim") return "sim/batch";
  return event.category + "/" + event.name.substr(0, event.name.find('/'));
}

/// Folds every span recorded since the last collection into `run` (keys
/// prefixed with `prefix`) and clears the recorder. Self time is a span's
/// duration minus the part its child spans on the same thread cover.
/// Outcome arguments add per-outcome call counts under "key?arg=value".
void collectSpans(Run& run, const std::string& prefix) {
  support::TraceRecorder& recorder = support::TraceRecorder::global();
  recorder.disable();
  std::vector<support::TraceEventView> events = recorder.snapshot();
  recorder.reset();
  std::erase_if(events, [](const auto& e) { return e.phase != 'X'; });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.startNs != b.startNs) return a.startNs < b.startNs;
    return a.durNs > b.durNs;  // parents before children sharing a start
  });
  std::vector<double> selfNs(events.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const support::TraceEventView& event = events[i];
    selfNs[i] = static_cast<double>(event.durNs);
    while (!open.empty()) {
      const support::TraceEventView& top = events[open.back()];
      if (top.tid == event.tid &&
          top.startNs + top.durNs > event.startNs) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) selfNs[open.back()] -= static_cast<double>(event.durNs);
    open.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const support::TraceEventView& event = events[i];
    const std::string key = prefix + spanKey(event);
    SpanTotals& totals = run.spans[key];
    ++totals.calls;
    totals.ms += static_cast<double>(event.durNs) / 1e6;
    totals.selfMs += selfNs[i] / 1e6;
    std::string outcome;
    for (const support::TraceArg& arg : event.args) {
      if (arg.key == "trials") {
        run.counters[key + "#trials"] += std::stod(arg.value);
      } else if (arg.key == "cache" || arg.key == "disk" ||
                 arg.key == "stage" || arg.key == "label") {
        outcome += (outcome.empty() ? "?" : "&") + arg.key + "=" + arg.value;
      }
    }
    if (!outcome.empty()) ++run.spans[key + outcome].calls;
  }
}

void startTracing() {
  support::TraceRecorder::global().reset();
  support::TraceRecorder::global().enable();
}

std::map<std::string, double> registrySnapshot() {
  std::map<std::string, double> values;
  for (const support::MetricSample& sample :
       support::MetricsRegistry::global().snapshot()) {
    values[sample.name] = static_cast<double>(sample.value);
  }
  return values;
}

/// Adds the growth of the program's counters since `before` to `run`.
void addRegistryGrowth(Run& run, const std::map<std::string, double>& before) {
  for (const auto& [name, value] : registrySnapshot()) {
    const auto it = before.find(name);
    run.counters[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

/// Adds a batch's stage-cache and disk-tier counters to `run`.
void addCacheStats(Run& run, const std::optional<core::ToolchainCacheStats>& stats,
                   const std::string& prefix = "") {
  if (!stats.has_value()) return;
  const auto add = [&](std::string_view stage, const support::StageCacheStats& s) {
    const std::string name = prefix + "cache." + std::string(stage) + ".";
    run.counters[name + "hits"] += static_cast<double>(s.hits);
    run.counters[name + "misses"] += static_cast<double>(s.misses);
    run.counters[name + "inflight_waits"] += static_cast<double>(s.inflightWaits);
  };
  add(core::kDiskStageTransforms, stats->transforms);
  add(core::kDiskStageSequentialWcet, stats->sequentialWcet);
  add(core::kDiskStageExpansion, stats->expansion);
  add(core::kDiskStageTimings, stats->timings);
  add(core::kDiskStageSchedules, stats->schedules);
  if (stats->disk.has_value()) {
    const support::DiskCacheStats& d = *stats->disk;
    run.counters[prefix + "disk.hits"] += static_cast<double>(d.hits);
    run.counters[prefix + "disk.misses"] += static_cast<double>(d.misses);
    run.counters[prefix + "disk.rejects"] += static_cast<double>(d.rejects);
    run.counters[prefix + "disk.stores"] += static_cast<double>(d.stores);
    run.counters[prefix + "disk.store_failures"] +=
        static_cast<double>(d.storeFailures);
  }
}

// ---- Simulator probes -----------------------------------------------------

/// runEval's probe: each trial starts from a fresh zero environment plus
/// constants, with every input drawn uniformly from [-1, 1) by a stream
/// seeded with (scenario seed + trial).
adl::Cycles probeRandomTrials(const par::ParallelProgram& program,
                              const adl::Platform& platform,
                              const ir::Function& fn,
                              const ir::Environment& constants,
                              std::uint64_t scenarioSeed, int trials,
                              const std::string& point) {
  const sim::Simulator simulator(program, platform);
  ir::Environment base = ir::makeZeroEnvironment(fn);
  for (const auto& [name, value] : constants) base[name] = value;
  adl::Cycles worst = 0;
  for (int trial = 0; trial < trials; ++trial) {
    ir::Environment env = base;
    support::Rng rng(scenarioSeed + static_cast<std::uint64_t>(trial));
    for (const ir::VarDecl& decl : fn.decls()) {
      if (decl.role != ir::VarRole::Input) continue;
      ir::Value& value = env[decl.name];
      for (std::int64_t i = 0; i < value.size(); ++i) {
        value.setFloat(i, rng.uniformDouble() * 2.0 - 1.0);
      }
    }
    LayerSpan span("sim.step", point);
    worst = std::max(worst, simulator.step(env).makespan);
  }
  return worst;
}

/// argo_cc --simulate's probe: one environment carried across
/// kAppSteps steps, so model state persists from step to step. The steps
/// are the seed's own (seed * kAppSteps + step), not the recorded ones.
adl::Cycles probeAppSteps(const par::ParallelProgram& program,
                          const adl::Platform& platform, const ir::Function& fn,
                          const ir::Environment& constants,
                          const std::string& app, std::uint64_t seed,
                          const std::string& point) {
  const sim::Simulator simulator(program, platform);
  ir::Environment env = ir::makeZeroEnvironment(fn);
  for (const auto& [name, value] : constants) env[name] = value;
  adl::Cycles worst = 0;
  for (int step = 0; step < kAppSteps; ++step) {
    apps::setAppStepInputs(
        app, env, seed * kAppSteps + static_cast<std::uint64_t>(step));
    LayerSpan span("sim.step", point);
    worst = std::max(worst, simulator.step(env).makespan);
  }
  return worst;
}

/// The recorded inputs an app point's emitted harness replays: steps
/// 0..kAppSteps-1, exactly what argo_cc --emit-c records. Not seeded,
/// because emitC formats every recorded value into the C sources, so the
/// values would change the amount of timed work.
codegen::InputTrace appTrace(const std::string& app, const ir::Function& fn) {
  codegen::InputTrace trace;
  for (int step = 0; step < kAppSteps; ++step) {
    ir::Environment env = ir::makeZeroEnvironment(fn);
    apps::setAppStepInputs(app, env, static_cast<std::uint64_t>(step));
    trace.steps.push_back(std::move(env));
  }
  return trace;
}

std::string emissionBytes(const codegen::Emission& emission) {
  std::string bytes;
  for (const codegen::SourceFile& file : emission.files) {
    bytes += file.name;
    bytes += '\0';
    bytes += file.contents;
    bytes += '\0';
  }
  return bytes;
}

// ---- runEval workloads: matrix50 and resweep ------------------------------

scenarios::EvalOptions evalOptions(const Args& args) {
  scenarios::EvalOptions options;
  options.generator.seed = kScenarioFamily;
  options.toolchain.sched.seed = args.seed;
  if (args.workload == "matrix50") {
    options.scenarioCount = 50;
  } else {
    options.scenarioCount = 12;
    options.sweepMode = scenarios::SweepMode::Cross;
    options.threads = kResweepThreads;
  }
  return options;
}

std::string pointId(const scenarios::ScenarioResult& row) {
  return row.scenario + "/" + row.platformCase;
}

/// Every report field of a point's outcomes except wall time.
std::string rowSignature(const scenarios::ScenarioResult& row) {
  std::string signature = pointId(row);
  for (const scenarios::PolicyOutcome& o : row.outcomes) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "|%d,%d,%d,%" PRId64 ",%" PRId64 ",%" PRId64 ",%d",
                  o.tasks, o.tilesUsed, o.chosenChunks, o.sequentialWcet,
                  o.bound, o.observed, o.simSafe ? 1 : 0);
    signature += "|" + o.policy + "," + o.scheduleLabel + buf;
  }
  return signature;
}

/// The canonical report a pass must reproduce, row by row.
struct EvalReference {
  std::string json;
  std::vector<std::string> rows;

  explicit EvalReference(const scenarios::EvalReport& report)
      : json(report.toJson(false)) {
    for (const scenarios::ScenarioResult& row : report.scenarios) {
      rows.push_back(rowSignature(row));
    }
  }
};

/// The correctness gate of one runEval pass: a point fails when one of
/// its probes exceeded the bound or its rows differ from the reference's.
void checkEvalPass(Run& run, const scenarios::EvalReport& report,
                   const EvalReference& reference) {
  const bool sameReport = report.toJson(false) == reference.json;
  for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
    const scenarios::ScenarioResult& row = report.scenarios[i];
    std::string problem;
    if (!std::all_of(row.outcomes.begin(), row.outcomes.end(),
                     [](const auto& o) { return o.simSafe; })) {
      problem = "a simulated makespan exceeds its bound";
    } else if (i >= reference.rows.size() ||
               rowSignature(row) != reference.rows[i]) {
      problem = "report row differs from the reference";
    } else if (!sameReport) {
      problem = "canonical report differs from the reference";
    }
    accountPoint(run, pointId(row), problem);
  }
}

/// Records one timed runEval pass. A point costs the wall time of its
/// policy units (toolchain and simulator stages).
void recordEvalPass(Run& run, const scenarios::EvalReport& report,
                    double wallS, double cpuS) {
  for (const scenarios::ScenarioResult& row : report.scenarios) {
    double ms = 0.0;
    for (const scenarios::PolicyOutcome& o : row.outcomes) ms += o.wallMs;
    run.pointMs.push_back(ms);
  }
  run.passWallS.push_back(wallS);
  run.passCpuS.push_back(cpuS);
  run.passPoints.push_back(static_cast<std::int64_t>(report.scenarios.size()));
  if (run.speedups.empty()) {
    for (const scenarios::ScenarioResult& row : report.scenarios) {
      for (const scenarios::PolicyOutcome& o : row.outcomes) {
        run.speedups.push_back(o.boundSpeedup());
      }
    }
  }
}

scenarios::EvalReport timedEval(Run& run, const scenarios::EvalOptions& options,
                                double& wallS, double& cpuS) {
  const double cpu0 = workloadCpuSeconds(run);
  const auto begin = Clock::now();
  scenarios::EvalReport report = scenarios::runEval(options);
  const auto end = Clock::now();
  wallS = std::chrono::duration<double>(end - begin).count();
  cpuS = workloadCpuSeconds(run) - cpu0;
  if (run.probe != nullptr) recordPassWindow(run, begin, end);
  return report;
}

/// Untraced pass of a traced run: its wall time is the overhead baseline,
/// and it supplies the cache, graph and pool counters.
scenarios::EvalReport untracedEvalPass(Run& run,
                                       const scenarios::EvalOptions& options) {
  const std::map<std::string, double> before = registrySnapshot();
  double wallS = 0.0;
  double cpuS = 0.0;
  scenarios::EvalReport report = timedEval(run, options, wallS, cpuS);
  addRegistryGrowth(run, before);
  addCacheStats(run, report.cacheStats);
  double busyMs = 0.0;
  for (const scenarios::ScenarioResult& row : report.scenarios) {
    for (const scenarios::PolicyOutcome& o : row.outcomes) busyMs += o.wallMs;
  }
  run.counters["pool.busy_ms"] += busyMs;
  run.counters["pool.wall_ms"] += wallS * 1000.0;
  run.untracedS += wallS;
  return report;
}

void runMatrix50(const Args& args, Run& run) {
  const scenarios::EvalOptions options = evalOptions(args);
  std::vector<scenarios::PlatformCase> sweep;
  std::vector<scenarios::Scenario> scenarioList;
  const auto makeInputs = [&] {
    LayerSpan span("scenarios.generate", "setup");
    sweep = scenarios::buildPlatformSweep(options.sweep);
    scenarioList = scenarios::generateScenarios(options.generator,
                                                options.scenarioCount);
  };
  const auto begin = Clock::now();
  if (!args.trace) {
    timeSetup(run, makeInputs);
    std::optional<EvalReference> reference;
    const std::size_t minPasses =
        (kMinPointSamples + scenarioList.size() - 1) / scenarioList.size();
    const auto timed = Clock::now();
    while (anotherTimedPass(run, timed, args.seconds, minPasses)) {
      double wallS = 0.0;
      double cpuS = 0.0;
      const scenarios::EvalReport report = timedEval(run, options, wallS, cpuS);
      if (!reference.has_value()) reference.emplace(report);
      checkEvalPass(run, report, *reference);
      recordEvalPass(run, report, wallS, cpuS);
    }
    return;
  }

  startTracing();
  makeInputs();
  collectSpans(run, "setup:");
  const std::vector<std::string> policies = sched::registeredPolicyNames();
  double lastPassS = 0.0;
  while (anotherPass(run.tracedPasses, lastPassS, begin, args.seconds, 1)) {
    const auto passBegin = Clock::now();
    const scenarios::EvalReport report = untracedEvalPass(run, options);

    startTracing();
    const auto traced = Clock::now();
    std::vector<perfbench::WalkedPoint> walked;
    for (std::size_t i = 0; i < scenarioList.size(); ++i) {
      const scenarios::Scenario& scenario = scenarioList[i];
      const adl::Platform& platform =
          sweep[scenarios::moduloSweepCase(i, sweep.size())].platform;
      const std::string id = pointId(report.scenarios.at(i));
      walked.push_back(perfbench::walkPoint(id, scenario.model, platform,
                                            options.toolchain, policies));
      for (const perfbench::WalkedUnit& unit : walked.back().units) {
        (void)probeRandomTrials(unit.program, platform, *walked.back().fn,
                                scenario.model.constants, scenario.seed,
                                options.simTrials, id);
      }
    }
    run.tracedS += secondsSince(traced);
    collectSpans(run, "");
    ++run.tracedPasses;

    // Fidelity: every walked unit against Toolchain::run (one stage cache
    // per point, like runEval's per-cell prefix sharing) and against the
    // runEval report's row.
    for (std::size_t i = 0; i < scenarioList.size(); ++i) {
      const scenarios::ScenarioResult& row = report.scenarios.at(i);
      const adl::Platform& platform =
          sweep[scenarios::moduloSweepCase(i, sweep.size())].platform;
      auto cache = std::make_shared<core::ToolchainCache>();
      std::string problem;
      for (std::size_t p = 0; p < policies.size(); ++p) {
        core::ToolchainOptions unit = perfbench::unitOptions(options.toolchain,
                                                             policies[p]);
        unit.cache = cache;
        const core::ToolchainResult result =
            core::Toolchain(platform, unit).run(scenarioList[i].model);
        const perfbench::WalkedUnit& w = walked[i].units[p];
        if (w.bound != result.system.makespan ||
            w.bound != row.outcomes.at(p).bound ||
            w.chosenChunks != result.chosenChunks ||
            w.scheduleLabel != result.schedule.policy ||
            walked[i].sequentialWcet != result.sequentialWcet ||
            walked[i].irText != ir::toString(*result.fn)) {
          problem = "layer walk differs from Toolchain::run for " + policies[p];
        }
        ++run.walkedUnits;
      }
      accountPoint(run, pointId(row), problem);
    }
    lastPassS = secondsSince(passBegin);
  }
}

void runResweep(const Args& args, Run& run) {
  run.threads = kResweepThreads;
  std::filesystem::create_directories(args.workDir);
  scenarios::EvalOptions options = evalOptions(args);
  std::optional<EvalReference> reference;
  int populates = 0;
  // Setup: a cold populate of a fresh disk cache directory (the write
  // path). Every populate must produce the same report.
  const auto populate = [&] {
    options.cacheDir =
        (std::filesystem::path(args.workDir) / ("cache" + std::to_string(populates++)))
            .string();
    std::filesystem::remove_all(options.cacheDir);
    const scenarios::EvalReport report = scenarios::runEval(options);
    if (!reference.has_value()) {
      reference.emplace(report);
    } else if (report.toJson(false) != reference->json) {
      throw std::runtime_error("cold populates disagree");
    }
    if (args.trace) addCacheStats(run, report.cacheStats, "setup:");
  };
  const auto begin = Clock::now();
  if (!args.trace) {
    timeSetup(run, populate);
    const auto timed = Clock::now();
    // Each pass starts with a fresh memory cache over the populated
    // directory, as a new `argo_eval --cache-dir` process does.
    while (anotherTimedPass(run, timed, args.seconds, 1)) {
      double wallS = 0.0;
      double cpuS = 0.0;
      const scenarios::EvalReport report = timedEval(run, options, wallS, cpuS);
      checkEvalPass(run, report, *reference);
      recordEvalPass(run, report, wallS, cpuS);
    }
    return;
  }

  startTracing();
  populate();
  collectSpans(run, "setup:");
  std::uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(options.cacheDir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  run.counters["setup:disk.bytes"] = static_cast<double>(bytes);
  double lastPassS = 0.0;
  while (anotherPass(run.tracedPasses, lastPassS, begin, args.seconds, 1)) {
    const auto passBegin = Clock::now();
    (void)untracedEvalPass(run, options);
    startTracing();
    const auto traced = Clock::now();
    const scenarios::EvalReport report = scenarios::runEval(options);
    run.tracedS += secondsSince(traced);
    collectSpans(run, "");
    ++run.tracedPasses;
    checkEvalPass(run, report, *reference);
    lastPassS = secondsSince(passBegin);
  }
}

// ---- apps_compile ---------------------------------------------------------

struct AppModels {
  std::vector<scenarios::PlatformCase> sweep;
  std::vector<model::CompiledModel> models;  ///< Parallel to kApps.
};

AppModels buildAppModels() {
  AppModels inputs;
  inputs.sweep = scenarios::buildPlatformSweep(scenarios::SweepOptions{});
  for (const std::string& app : kApps) {
    const model::Diagram diagram = apps::buildAppDiagram(app);
    LayerSpan span("model.compile", "setup");
    inputs.models.push_back(diagram.compile());
  }
  return inputs;
}

/// What an app point must reproduce from pass to pass.
struct AppOutcome {
  std::string report;  ///< reportText(false): passes, tasks, bounds, feedback.
  std::string irText;
  std::string emission;
  adl::Cycles sequentialWcet = 0;
  adl::Cycles bound = 0;
  int chosenChunks = 0;
  std::string scheduleLabel;
  bool simSafe = true;
};

struct AppPoint {
  std::size_t app;  ///< Index into kApps and AppModels::models.
  const adl::Platform* platform;
  std::string id;
};

void runAppsCompile(const Args& args, Run& run) {
  // argo_cc's defaults (heft, full chunk ladder, transforms and SPM on,
  // no cache) with the feedback exploration inline.
  const core::ToolchainOptions options =
      perfbench::unitOptions(core::ToolchainOptions{}, "heft");
  AppModels inputs;
  const auto begin = Clock::now();
  if (args.trace) {
    startTracing();
    inputs = buildAppModels();
    collectSpans(run, "setup:");
  } else {
    timeSetup(run, [&] { inputs = buildAppModels(); });
  }
  std::vector<AppPoint> points;
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    for (const scenarios::PlatformCase& c : inputs.sweep) {
      points.push_back(AppPoint{a, &c.platform, kApps[a] + "/" + c.name});
    }
  }

  // One timed compile of an app point the way argo_cc --emit-c does it;
  // the checks and the simulator probe run outside the timed part.
  const auto compile = [&](const AppPoint& point, double& ms, double& cpuMs) {
    const std::string& app = kApps[point.app];
    const double cpu0 = workloadCpuSeconds(run);
    const auto pointBegin = Clock::now();
    const core::Toolchain toolchain(*point.platform, options);
    const core::ToolchainResult result = toolchain.run(inputs.models[point.app]);
    const codegen::Emission emission =
        toolchain.emitC(result, appTrace(app, *result.fn));
    ms = secondsSince(pointBegin) * 1000.0;
    cpuMs = (workloadCpuSeconds(run) - cpu0) * 1000.0;
    AppOutcome outcome;
    outcome.report = result.reportText(false);
    outcome.irText = ir::toString(*result.fn);
    outcome.emission = emissionBytes(emission);
    outcome.sequentialWcet = result.sequentialWcet;
    outcome.bound = result.system.makespan;
    outcome.chosenChunks = result.chosenChunks;
    outcome.scheduleLabel = result.schedule.policy;
    outcome.simSafe = probeAppSteps(result.program, *point.platform, *result.fn,
                                    result.constants, app, args.seed,
                                    point.id) <= outcome.bound;
    return outcome;
  };

  // The traced counterpart: the layer walk plus the same probe and
  // emission, checked against the untraced compile's outcome.
  const auto walk = [&](const AppPoint& point, const AppOutcome& expected) {
    const std::string& app = kApps[point.app];
    const model::CompiledModel& model = inputs.models[point.app];
    const perfbench::WalkedPoint walked = perfbench::walkPoint(
        point.id, model, *point.platform, options, {options.sched.policy});
    const perfbench::WalkedUnit& unit = walked.units.front();
    (void)probeAppSteps(unit.program, *point.platform, *walked.fn,
                        model.constants, app, args.seed, point.id);
    const codegen::InputTrace trace = appTrace(app, *walked.fn);
    codegen::Emission emission;
    {
      LayerSpan span("codegen.emit", point.id);
      emission = codegen::emitProgram(unit.program, *point.platform,
                                      model.constants, trace);
    }
    const std::string bytes = emissionBytes(emission);
    run.counters["codegen.bytes"] += static_cast<double>(bytes.size());
    ++run.walkedUnits;
    const bool same = unit.bound == expected.bound &&
                      unit.chosenChunks == expected.chosenChunks &&
                      unit.scheduleLabel == expected.scheduleLabel &&
                      walked.sequentialWcet == expected.sequentialWcet &&
                      walked.irText == expected.irText && bytes == expected.emission;
    return same ? std::string() : "layer walk differs from Toolchain::run";
  };

  std::vector<AppOutcome> reference;
  const std::size_t minPasses =
      (kMinPointSamples + points.size() - 1) / points.size();
  const auto timed = Clock::now();
  double lastPassS = 0.0;
  while (args.trace
             ? anotherPass(run.tracedPasses, lastPassS, begin, args.seconds, 1)
             : anotherTimedPass(run, timed, args.seconds, minPasses)) {
    const auto passBegin = Clock::now();
    std::vector<AppOutcome> outcomes(points.size());
    std::vector<std::string> problems(points.size());
    std::vector<double> ms(points.size());
    std::vector<double> cpuMs(points.size());
    double busyMs = 0.0;  // whole point, probe included
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto pointBegin = Clock::now();
      try {
        outcomes[i] = compile(points[i], ms[i], cpuMs[i]);
        if (!outcomes[i].simSafe) {
          problems[i] = "a simulated makespan exceeds its bound";
        } else if (!reference.empty() &&
                   (outcomes[i].report != reference[i].report ||
                    outcomes[i].emission != reference[i].emission)) {
          problems[i] = "report or emitted C differs from the first pass";
        }
      } catch (const std::exception& error) {
        problems[i] = std::string("toolchain threw: ") + error.what();
      }
      busyMs += secondsSince(pointBegin) * 1000.0;
    }
    const auto passEnd = Clock::now();
    const double wallS = std::chrono::duration<double>(passEnd - passBegin).count();
    if (reference.empty()) reference = outcomes;

    if (!args.trace) {
      // The pass is its timed points back to back: the client's checks
      // between them are not the system's work.
      run.pointMs.insert(run.pointMs.end(), ms.begin(), ms.end());
      run.passWallS.push_back(std::accumulate(ms.begin(), ms.end(), 0.0) / 1000.0);
      run.passCpuS.push_back(std::accumulate(cpuMs.begin(), cpuMs.end(), 0.0) / 1000.0);
      run.passPoints.push_back(static_cast<std::int64_t>(points.size()));
      recordPassWindow(run, passBegin, passEnd);
      if (run.speedups.empty()) {
        for (const AppOutcome& o : outcomes) {
          // A point that threw has no bound; it is counted as failed.
          if (o.bound > 0) {
            run.speedups.push_back(static_cast<double>(o.sequentialWcet) /
                                   static_cast<double>(o.bound));
          }
        }
      }
    } else {
      run.untracedS += wallS;
      run.counters["pool.busy_ms"] += busyMs;
      run.counters["pool.wall_ms"] += wallS * 1000.0;
      startTracing();
      const auto traced = Clock::now();
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string mismatch = walk(points[i], outcomes[i]);
        if (problems[i].empty()) problems[i] = mismatch;
      }
      run.tracedS += secondsSince(traced);
      collectSpans(run, "");
      ++run.tracedPasses;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      accountPoint(run, points[i].id, problems[i]);
    }
    lastPassS = secondsSince(passBegin);
  }
}

// ---- Output ---------------------------------------------------------------

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

template <typename T>
std::string array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += number(static_cast<double>(values[i]));
  }
  return out + "]";
}

void print(const Args& args, const Run& run) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::string out = "{\"workload\":\"" + args.workload + "\"";
  out += ",\"threads\":" + std::to_string(run.threads);
  out += ",\"setup_s\":" + array(run.setupS);
  out += ",\"setup_begin_s\":" + array(run.setupBeginS);
  out += ",\"setup_end_s\":" + array(run.setupEndS);
  out += ",\"pass_begin_s\":" + array(run.passBeginS);
  out += ",\"pass_end_s\":" + array(run.passEndS);
  out += ",\"pass_wall_s\":" + array(run.passWallS);
  out += ",\"pass_cpu_s\":" + array(run.passCpuS);
  out += ",\"pass_points\":" + array(run.passPoints);
  out += ",\"point_ms\":" + array(run.pointMs);
  out += ",\"speedups\":" + array(run.speedups);
  out += ",\"attempted\":" + std::to_string(run.attempted);
  out += ",\"failed\":" + std::to_string(run.failed);
  out += ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss);
  std::vector<double> speedAt;
  std::vector<double> kernelMs;
  if (run.probe != nullptr) {
    for (const perfbench::SpeedSample& sample : run.probe->samples()) {
      speedAt.push_back(sample.atS);
      kernelMs.push_back(sample.kernelMs);
    }
  }
  out += ",\"speed_at_s\":" + array(speedAt);
  out += ",\"speed_kernel_ms\":" + array(kernelMs);
  out += ",\"traced_passes\":" + std::to_string(run.tracedPasses);
  out += ",\"traced_s\":" + number(run.tracedS);
  out += ",\"untraced_s\":" + number(run.untracedS);
  out += ",\"walked_units\":" + std::to_string(run.walkedUnits);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : run.counters) {
    out += (first ? "\"" : ",\"") + name + "\":" + number(value);
    first = false;
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& [key, totals] : run.spans) {
    out += (first ? "\"" : ",\"") + key + "\":{\"calls\":" +
           std::to_string(totals.calls) + ",\"ms\":" + number(totals.ms) +
           ",\"self_ms\":" + number(totals.selfMs) + "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    Run run;
    std::optional<perfbench::SpeedProbe> probe;
    if (!args.trace) {
      // resweep's pool spreads over every CPU by itself; the probe takes
      // the one-thread workloads' only thread along.
      std::optional<pthread_t> workload;
      if (args.workload != "resweep") workload = pthread_self();
      probe.emplace(perfbench::allowedCpus(), workload);
      run.probe = &*probe;
    }
    if (args.workload == "matrix50") {
      runMatrix50(args, run);
    } else if (args.workload == "resweep") {
      runResweep(args, run);
    } else {
      runAppsCompile(args, run);
    }
    print(args, run);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "argo_perfbench: %s\n", error.what());
    return 1;
  }
}
