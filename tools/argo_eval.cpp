// argo_eval — batch evaluation of the scheduling-policy registry over a
// generated scenario matrix (src/scenarios). Prints one machine-readable
// JSON report (per-scenario makespan bound, simulator-checked tightness,
// policy winner) to stdout or --out.
//
// Determinism: the default output is byte-identical for any --threads
// value (see docs/SCENARIOS.md); --timings adds wall-clock fields, which
// are the one run-to-run varying part, for perf-trajectory recording.
//
//   argo_eval --seed 7 --scenarios 50 --threads 0 --timings > BENCH_eval.json
//   argo_eval --seed 7 --scenarios 50 --threads 1 | cmp - <(argo_eval ... --threads 8)
//
// Options:
//   --seed N            base seed of the scenario family       (default 1)
//   --scenarios N       number of generated scenarios          (default 20)
//   --threads N         batch workers; 0 = hardware threads    (default 1)
//   --sweep-mode NAME   modulo | cross                  (default modulo)
//                       modulo = scenario i on sweep case i % caseCount;
//                       cross = every scenario on every sweep case (the
//                       full design-space product; rows scenario-major).
//   --cache NAME        on | off                            (default on)
//                       on = memoize toolchain stages in one content-hash
//                       cache shared by the batch (core/cache.h); off =
//                       every unit runs on a fresh cache of its own, so
//                       nothing is shared across units. The report is
//                       byte-identical either way — the A/B pair is the
//                       cache-differential oracle. Cache counters appear
//                       in the JSON only together with --timings.
//   --cache-dir DIR     persist the stage cache on disk under DIR
//                       (support/disk_cache.h): a rerun in a fresh
//                       process starts warm, and the report stays
//                       byte-identical to --cache off. Defaults to the
//                       ARGO_CACHE_DIR environment variable; unset/empty
//                       means in-memory only. Ignored with --cache off.
//                       Disk hit/miss/reject/store counters join the
//                       `metrics` JSON under --timings; a nonzero
//                       reject count (malformed records recomputed —
//                       damage or version skew in DIR) is additionally
//                       reported on stderr unconditionally.
//   --policies a,b,..   registry names to compare   (default: all registered)
//                       (accepts the argo_cc aliases bnb / oblivious;
//                       unknown names are rejected up front with the
//                       registered set)
//   --shape NAME        layered_dag | stencil_chain   (default layered_dag)
//   --stencil-radius N  window half-width for stencil_chain    (default 1)
//   --sim-trials N      simulator probes per run; 0 = skip     (default 3)
//   --layers MIN:MAX    hidden-layer range                     (default 2:4)
//   --width MIN:MAX     nodes-per-layer range                  (default 1:3)
//   --array-len MIN:MAX array length range                     (default 8:48)
//   --ccr X             communication/computation knob         (default 1.0)
//   --spread X          WCET spread (>= 1)                     (default 4.0)
//   --cores a,b,..      platform-sweep core counts             (default 2,4,8)
//   --platforms a,b,..  subset of bus_rr,bus_tdma,noc          (default all)
//   --spm a,b,..        SPM bytes to sweep        (default: platform default)
//   --timings           include wall-clock fields in the JSON (adds the
//                       per-unit wall_ms fields and the unified `metrics`
//                       counter block — see docs/OBSERVABILITY.md)
//   --trace FILE        record a Chrome trace-event JSON execution trace
//                       to FILE (support/trace.h): spans for graph nodes,
//                       toolchain stages with cache
//                       hit/miss attribution, disk cache I/O, per-unit
//                       eval and simulator batches. Load in Perfetto or
//                       summarize with tools/trace_summary.py. Defaults
//                       to the ARGO_TRACE environment variable;
//                       unset/empty disables tracing. The report bytes
//                       are identical with tracing on or off.
//   --out FILE          write the JSON to FILE instead of stdout
//
// Exit code: 0 iff the batch ran and every simulator probe stayed within
// its bound; 1 on a bound violation or a tool-chain error; 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/metrics_report.h"
#include "scenarios/eval.h"
#include "sched/policy.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/trace.h"

namespace {

using namespace argo;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--scenarios N] [--threads N] [--policies a,b]\n"
      "          [--sweep-mode modulo|cross] [--cache on|off]\n"
      "          [--cache-dir DIR]\n"
      "          [--sim-trials N] [--layers MIN:MAX] [--width MIN:MAX]\n"
      "          [--array-len MIN:MAX] [--ccr X] [--spread X]\n"
      "          [--shape layered_dag|stencil_chain] [--stencil-radius N]\n"
      "          [--cores a,b] [--platforms bus_rr,bus_tdma,noc]\n"
      "          [--spm a,b] [--timings] [--trace FILE] [--out FILE]\n",
      argv0);
  std::exit(2);
}

void parseRange(const std::string& value, int& lo, int& hi, const char* argv0) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) usage(argv0);
  try {
    lo = std::stoi(value.substr(0, colon));
    hi = std::stoi(value.substr(colon + 1));
  } catch (...) {
    usage(argv0);
  }
}

std::vector<int> parseIntList(const std::string& value, const char* argv0) {
  std::vector<int> out;
  for (const std::string& item : support::split(value, ',')) {
    try {
      out.push_back(std::stoi(item));
    } catch (...) {
      usage(argv0);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  scenarios::EvalOptions options;
  bool timings = false;
  std::string outFile;
  std::string traceFile;

  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seed") {
        options.generator.seed = std::stoull(value(i));
      } else if (arg == "--scenarios") {
        options.scenarioCount = std::stoi(value(i));
      } else if (arg == "--threads") {
        options.threads = std::stoi(value(i));
      } else if (arg == "--policies") {
        // Same UX as argo_cc --policy: short aliases for the built-ins,
        // everything else passed to the registry verbatim.
        options.policies.clear();
        for (const std::string& name : support::split(value(i), ',')) {
          if (name == "bnb") options.policies.push_back("branch_and_bound");
          else if (name == "oblivious")
            options.policies.push_back("contention_oblivious");
          else options.policies.push_back(name);
        }
      } else if (arg == "--sweep-mode") {
        const std::string name = value(i);
        if (name == "modulo") {
          options.sweepMode = scenarios::SweepMode::Modulo;
        } else if (name == "cross") {
          options.sweepMode = scenarios::SweepMode::Cross;
        } else {
          throw support::ToolchainError("unknown sweep mode '" + name +
                                        "' (expected modulo or cross)");
        }
      } else if (arg == "--cache") {
        const std::string name = value(i);
        if (name == "on") {
          options.cacheEnabled = true;
        } else if (name == "off") {
          options.cacheEnabled = false;
        } else {
          throw support::ToolchainError("unknown cache setting '" + name +
                                        "' (expected on or off)");
        }
      } else if (arg == "--cache-dir") {
        options.cacheDir = value(i);
      } else if (arg == "--sim-trials") {
        options.simTrials = std::stoi(value(i));
      } else if (arg == "--layers") {
        parseRange(value(i), options.generator.minLayers,
                   options.generator.maxLayers, argv[0]);
      } else if (arg == "--width") {
        parseRange(value(i), options.generator.minWidth,
                   options.generator.maxWidth, argv[0]);
      } else if (arg == "--array-len") {
        parseRange(value(i), options.generator.minArrayLen,
                   options.generator.maxArrayLen, argv[0]);
      } else if (arg == "--ccr") {
        options.generator.ccr = std::stod(value(i));
      } else if (arg == "--spread") {
        options.generator.wcetSpread = std::stod(value(i));
      } else if (arg == "--shape") {
        options.generator.shape = scenarios::shapeFromName(value(i));
      } else if (arg == "--stencil-radius") {
        options.generator.stencilRadius = std::stoi(value(i));
      } else if (arg == "--cores") {
        options.sweep.coreCounts = parseIntList(value(i), argv[0]);
      } else if (arg == "--platforms") {
        options.sweep.busRoundRobin = false;
        options.sweep.busTdma = false;
        options.sweep.noc = false;
        for (const std::string& p : support::split(value(i), ',')) {
          if (p == "bus_rr") options.sweep.busRoundRobin = true;
          else if (p == "bus_tdma") options.sweep.busTdma = true;
          else if (p == "noc") options.sweep.noc = true;
          else usage(argv[0]);
        }
      } else if (arg == "--spm") {
        options.sweep.spmBytes.clear();
        for (int bytes : parseIntList(value(i), argv[0])) {
          options.sweep.spmBytes.push_back(bytes);
        }
      } else if (arg == "--timings") {
        timings = true;
      } else if (arg == "--trace") {
        traceFile = value(i);
      } else if (arg == "--out") {
        outFile = value(i);
      } else {
        usage(argv[0]);
      }
    }
  } catch (const support::ToolchainError& error) {
    // Knob-level diagnostics (e.g. an unknown --shape) carry their own
    // message; surface it instead of the generic usage text.
    std::fprintf(stderr, "argo_eval: %s\n", error.what());
    return 2;
  } catch (const std::exception&) {
    usage(argv[0]);
  }

  // --cache-dir wins over the environment; both empty = no disk tier.
  if (options.cacheDir.empty()) {
    if (const char* env = std::getenv("ARGO_CACHE_DIR")) {
      options.cacheDir = env;
    }
  }
  // Same precedence for the trace destination.
  if (traceFile.empty()) {
    if (const char* env = std::getenv("ARGO_TRACE")) {
      traceFile = env;
    }
  }
  if (!traceFile.empty()) support::TraceRecorder::global().enable();

  try {
    // Reject unknown policy names up front — before any generation or
    // tool-chain work — with the registered-set diagnostic (the same UX
    // as argo_cc --policy).
    for (const std::string& policy : options.policies) {
      (void)sched::policyOrThrow(policy);
    }
    const scenarios::EvalReport report = scenarios::runEval(options);
    // The pinned disk-reject warning, shared with argo_cc (see
    // core/metrics_report.h for why it bypasses --timings).
    core::warnDiskRejects("argo_eval", report.cacheStats);
    const std::string json = report.toJson(timings);
    if (outFile.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(outFile);
      if (!out) {
        std::fprintf(stderr, "argo_eval: cannot write '%s'\n",
                     outFile.c_str());
        return 1;
      }
      out << json << "\n";
    }
    if (!traceFile.empty() &&
        !support::TraceRecorder::global().writeFile(traceFile)) {
      std::fprintf(stderr, "argo_eval: cannot write trace '%s'\n",
                   traceFile.c_str());
      return 1;
    }
    return report.allSimSafe ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "argo_eval: %s\n", error.what());
    return 1;
  }
}
