// argo_cc — command-line driver for the ARGO tool-chain.
//
// Runs the full flow (Fig. 1) on one of the built-in use-case models and a
// platform that is either built in or loaded from a textual ADL file, then
// prints the requested reports. Exit code 0 iff the pipeline succeeded and
// (when --simulate is given) every simulated step stayed within the bound.
//
//   argo_cc --app polka --platform bus --cores 8 --report gantt,bottlenecks
//   argo_cc --app egpws --adl myplatform.adl --simulate 5 --report code:0
//
// Options:
//   --app NAME          egpws | weaa | polka            (default egpws)
//   --platform NAME     bus | bus-tdma | noc            (default bus)
//   --cores N           core count / mesh size           (default 8)
//   --adl FILE          load the platform from an ADL file (overrides
//                       --platform/--cores)
//   --policy NAME       heft | bnb | annealed | oblivious, or any name in
//                       the scheduling-policy registry (default heft)
//   --chunks N          fix the granularity (default: feedback explores)
//   --no-spm            disable scratchpad allocation
//   --no-transforms     disable the transformation passes
//   --simulate N        simulate N steps and check them against the bound
//   --emit-c DIR        emit the scheduled program as compilable C into DIR
//                       (argo_rt.h, program.h, tile<t>.c, main.c — see
//                       docs/CODEGEN.md; build with
//                       `cc -std=c11 -O1 -fno-strict-aliasing *.c -lm`,
//                       plus -pthread for --exec-mode threads)
//   --emit-steps N      steps of recorded inputs the emitted harness
//                       replays (default 3)
//   --exec-mode MODE    seq | threads — how the emitted main.c runs the
//                       dispatch tables: merged in-order replay, or one
//                       pthread per tile (default seq)
//   --runtime-asserts   emit per-slot checks of the scheduled start/finish
//                       cycles against a monotonic step-relative clock
//                       (violation exits 4; see docs/CODEGEN.md)
//   --cache-dir DIR     persist the toolchain stage cache on disk under
//                       DIR (support/disk_cache.h): a rerun with the same
//                       app/platform/options starts warm. Defaults to the
//                       ARGO_CACHE_DIR environment variable; unset/empty
//                       means no caching. Results are byte-identical with
//                       or without it (every stage is a pure function of
//                       its content-hash key); rejected (malformed)
//                       records are recomputed and reported on stderr.
//   --trace FILE        record a Chrome trace-event JSON execution trace
//                       to FILE (support/trace.h; Perfetto-loadable, or
//                       summarize with tools/trace_summary.py). Defaults
//                       to the ARGO_TRACE environment variable;
//                       unset/empty disables tracing. Reports are
//                       byte-identical with tracing on or off.
//   --report LIST       comma list: summary,gantt,mhp,bottlenecks,code:TILE
//                       (default summary). code:TILE prints the tile<TILE>.c
//                       unit --emit-c writes, byte for byte, or one line
//                       when the tile runs no task
//
// Integer flags take a whole decimal number: at least 1 for --cores,
// --chunks and --emit-steps, at least 0 for --simulate. Anything else
// exits 2 with a message that names the flag, as does a code:TILE report
// whose TILE is not a tile of the platform.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adl/parser.h"
#include "apps/registry.h"
#include "codegen/codegen.h"
#include "core/cache.h"
#include "core/metrics_report.h"
#include "core/report.h"
#include "core/toolchain.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace {

using namespace argo;

struct Options {
  std::string app = "egpws";
  std::string platform = "bus";
  std::string adlFile;
  std::string policy = "heft";
  int cores = 8;
  int chunks = 0;
  bool spm = true;
  bool transforms = true;
  int simulate = 0;
  std::string emitDir;
  int emitSteps = 3;
  codegen::ExecMode execMode = codegen::ExecMode::Sequential;
  bool runtimeAsserts = false;
  std::string cacheDir;
  std::string traceFile;
  std::vector<std::string> reports = {"summary"};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--app egpws|weaa|polka] [--platform bus|bus-tdma|"
               "noc] [--cores N]\n"
               "          [--adl FILE] [--policy heft|bnb|annealed|oblivious]"
               " [--chunks N]\n"
               "          [--no-spm] [--no-transforms] [--simulate N]\n"
               "          [--emit-c DIR] [--emit-steps N]"
               " [--exec-mode seq|threads] [--runtime-asserts]\n"
               "          [--cache-dir DIR] [--trace FILE]"
               " [--report summary,gantt,mhp,bottlenecks,code:TILE]\n",
               argv0);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto intValue = [&](int& i, int min) {
    const char* flag = argv[i];
    const std::string text = value(i);
    const std::optional<int> parsed = support::parseNumber<int>(text);
    if (!parsed) {
      std::fprintf(stderr, "argo_cc: %s expects an integer, got '%s'\n",
                   flag, text.c_str());
      std::exit(2);
    }
    if (*parsed < min) {
      std::fprintf(stderr, "argo_cc: %s must be at least %d, got %d\n", flag,
                   min, *parsed);
      std::exit(2);
    }
    return *parsed;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--app") options.app = value(i);
    else if (arg == "--platform") options.platform = value(i);
    else if (arg == "--adl") options.adlFile = value(i);
    else if (arg == "--policy") options.policy = value(i);
    else if (arg == "--cores") options.cores = intValue(i, 1);
    else if (arg == "--chunks") options.chunks = intValue(i, 1);
    else if (arg == "--no-spm") options.spm = false;
    else if (arg == "--no-transforms") options.transforms = false;
    else if (arg == "--simulate") options.simulate = intValue(i, 0);
    else if (arg == "--emit-c") options.emitDir = value(i);
    else if (arg == "--emit-steps") options.emitSteps = intValue(i, 1);
    else if (arg == "--exec-mode") {
      const std::string mode = value(i);
      if (mode == "seq") options.execMode = codegen::ExecMode::Sequential;
      else if (mode == "threads") options.execMode = codegen::ExecMode::Threads;
      else {
        std::fprintf(stderr, "unknown --exec-mode '%s' (seq|threads)\n",
                     mode.c_str());
        std::exit(2);
      }
    }
    else if (arg == "--runtime-asserts") options.runtimeAsserts = true;
    else if (arg == "--cache-dir") options.cacheDir = value(i);
    else if (arg == "--trace") options.traceFile = value(i);
    else if (arg == "--report") options.reports = support::split(value(i), ',');
    else usage(argv[0]);
  }
  if (options.cacheDir.empty()) {
    if (const char* env = std::getenv("ARGO_CACHE_DIR")) {
      options.cacheDir = env;
    }
  }
  if (options.traceFile.empty()) {
    if (const char* env = std::getenv("ARGO_TRACE")) {
      options.traceFile = env;
    }
  }
  return options;
}

adl::Platform makePlatform(const Options& options) {
  if (!options.adlFile.empty()) {
    std::ifstream in(options.adlFile);
    if (!in) {
      throw support::ToolchainError("cannot open ADL file '" +
                                    options.adlFile + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return adl::parseAdl(text.str());
  }
  if (options.platform == "bus") {
    return adl::makeRecoreXentiumBus(options.cores);
  }
  if (options.platform == "bus-tdma") {
    return adl::makeRecoreXentiumBus(options.cores, adl::Arbitration::Tdma);
  }
  if (options.platform == "noc") {
    // Nearest mesh that holds the requested core count.
    int width = 1;
    while (width * width < options.cores) ++width;
    return adl::makeKitLeon3Inoc(width, (options.cores + width - 1) / width);
  }
  throw support::ToolchainError("unknown platform '" + options.platform + "'");
}

/// The tile a `code:TILE` report names. Exits 2 with a message naming the
/// report when TILE is not a whole number or not a tile of `platform`.
int codeTile(const std::string& report, const adl::Platform& platform) {
  const std::string text = report.substr(std::strlen("code:"));
  const std::optional<int> tile = support::parseNumber<int>(text);
  if (!tile) {
    std::fprintf(stderr, "argo_cc: report '%s' expects a tile number, got "
                         "'%s'\n", report.c_str(), text.c_str());
    std::exit(2);
  }
  if (*tile < 0 || *tile >= platform.coreCount()) {
    std::fprintf(stderr, "argo_cc: report '%s' names tile %d, but the "
                         "platform has tiles 0..%d\n", report.c_str(), *tile,
                 platform.coreCount() - 1);
    std::exit(2);
  }
  return *tile;
}

/// Exits 2 on a report name argo_cc does not know, before the run.
void checkReports(const Options& options, const adl::Platform& platform) {
  for (const std::string& report : options.reports) {
    if (support::startsWith(report, "code:")) {
      (void)codeTile(report, platform);
    } else if (report != "summary" && report != "gantt" && report != "mhp" &&
               report != "bottlenecks" && !report.empty()) {
      std::fprintf(stderr, "unknown report '%s'\n", report.c_str());
      std::exit(2);
    }
  }
}

/// The deterministic per-step inputs --simulate uses, recorded for
/// --emit-steps steps, so the emitted harness and a simulated run see
/// identical data.
codegen::InputTrace recordTrace(const Options& options,
                                const ir::Function& fn) {
  codegen::InputTrace trace;
  for (int step = 0; step < options.emitSteps; ++step) {
    ir::Environment env = ir::makeZeroEnvironment(fn);
    apps::setAppStepInputs(options.app, env, static_cast<std::uint64_t>(step));
    trace.steps.push_back(std::move(env));
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parseArgs(argc, argv);
    if (!options.traceFile.empty()) support::TraceRecorder::global().enable();
    const adl::Platform platform = makePlatform(options);
    checkReports(options, platform);

    core::ToolchainOptions toolchainOptions;
    toolchainOptions.sched.policy = sched::resolvePolicyAlias(options.policy);
    toolchainOptions.sched.interferenceAware =
        toolchainOptions.sched.policy != "contention_oblivious";
    toolchainOptions.spmAllocation = options.spm;
    toolchainOptions.runTransforms = options.transforms;
    if (options.chunks > 0) {
      toolchainOptions.chunkCandidates = {options.chunks};
    }
    std::shared_ptr<core::ToolchainCache> cache;
    if (!options.cacheDir.empty()) {
      cache = std::make_shared<core::ToolchainCache>();
      cache->attachDisk(options.cacheDir);
      toolchainOptions.cache = cache;
    }

    const core::Toolchain toolchain(platform, toolchainOptions);
    const core::ToolchainResult result =
        toolchain.run(apps::buildAppDiagram(options.app));

    // Disk rejects are determinism-relevant (damaged or version-skewed
    // records silently costing recomputes), so they are always surfaced
    // through the pinned shared warning (core/metrics_report.h).
    if (cache != nullptr) core::warnDiskRejects("argo_cc", cache->stats());

    // Emitted once, for --emit-c and every code:TILE report alike (a tile
    // unit's bytes do not depend on the exec mode, the asserts or the
    // step count).
    std::optional<codegen::Emission> emission;
    const auto emitted = [&]() -> const codegen::Emission& {
      if (!emission) {
        codegen::EmitOptions emitOptions;
        emitOptions.mode = options.execMode;
        emitOptions.runtimeAsserts = options.runtimeAsserts;
        emission = toolchain.emitC(result, recordTrace(options, *result.fn),
                                   emitOptions);
      }
      return *emission;
    };

    for (const std::string& report : options.reports) {
      if (report == "summary") {
        std::printf("%s\n", result.reportText().c_str());
      } else if (report == "gantt") {
        std::printf("%s\n", core::renderGantt(result).c_str());
      } else if (report == "mhp") {
        std::printf("%s\n", core::renderMhpMatrix(result).c_str());
      } else if (report == "bottlenecks") {
        std::printf("%s\n", core::renderBottlenecks(result).c_str());
      } else if (support::startsWith(report, "code:")) {
        const int tile = codeTile(report, platform);
        const std::string unit = "tile" + std::to_string(tile) + ".c";
        const std::vector<std::string>& units = emitted().cUnits;
        if (std::find(units.begin(), units.end(), unit) == units.end()) {
          std::printf("tile %d runs no task\n", tile);
        } else {
          std::fputs(emitted().file(unit).contents.c_str(), stdout);
        }
      }
    }

    if (!options.emitDir.empty()) {
      const codegen::Emission& written = emitted();
      codegen::writeSources(options.emitDir, written);
      std::printf("emitted %zu files (%zu C units) to %s [%s]\n",
                  written.files.size(), written.cUnits.size(),
                  options.emitDir.c_str(),
                  options.execMode == codegen::ExecMode::Threads
                      ? "exec-mode threads"
                      : "exec-mode seq");
    }

    int exitCode = 0;
    if (options.simulate > 0) {
      sim::Simulator simulator(result.program, platform);
      ir::Environment env = ir::makeZeroEnvironment(*result.fn);
      for (const auto& [name, value] : result.constants) env[name] = value;
      bool allSafe = true;
      for (int step = 0; step < options.simulate; ++step) {
        apps::setAppStepInputs(options.app, env,
                               static_cast<std::uint64_t>(step));
        const sim::StepResult observed = simulator.step(env);
        const bool safe = observed.makespan <= result.system.makespan;
        allSafe = allSafe && safe;
        std::printf("step %d: observed %lld / bound %lld cycles  %s\n", step,
                    static_cast<long long>(observed.makespan),
                    static_cast<long long>(result.system.makespan),
                    safe ? "ok" : "BOUND VIOLATED");
      }
      if (!allSafe) exitCode = 1;
    }
    if (!options.traceFile.empty() &&
        !support::TraceRecorder::global().writeFile(options.traceFile)) {
      std::fprintf(stderr, "argo_cc: cannot write trace '%s'\n",
                   options.traceFile.c_str());
      return 1;
    }
    return exitCode;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "argo_cc: %s\n", error.what());
    return 1;
  }
}
