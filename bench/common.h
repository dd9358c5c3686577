// Shared helpers for the experiment harness. Each bench binary regenerates
// one experiment of the paper-derived index (E1..E10) and prints a small
// table with the expected shape stated inline.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/toolchain.h"
#include "sim/simulator.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace argo::bench {

inline apps::EgpwsConfig egpwsConfig() {
  apps::EgpwsConfig config;
  return config;
}

inline apps::WeaaConfig weaaConfig() {
  apps::WeaaConfig config;
  return config;
}

inline apps::PolkaConfig polkaConfig() {
  apps::PolkaConfig config;
  return config;
}

struct AppCase {
  std::string name;
  model::Diagram diagram;
};

inline std::vector<AppCase> allApps() {
  std::vector<AppCase> apps;
  apps.push_back({"egpws", apps::buildEgpwsDiagram(egpwsConfig())});
  apps.push_back({"weaa", apps::buildWeaaDiagram(weaaConfig())});
  apps.push_back({"polka", apps::buildPolkaDiagram(polkaConfig())});
  return apps;
}

/// Seeds the environment of a compiled app with representative inputs.
inline void setInputs(const std::string& app, ir::Environment& env,
                      std::uint64_t seed) {
  support::Rng rng(seed);
  if (app == "egpws") {
    apps::EgpwsInputs in;
    in.x = 2.0 + rng.uniformDouble() * 28.0;
    in.y = 2.0 + rng.uniformDouble() * 28.0;
    in.altitude = 200.0 + rng.uniformDouble() * 1500.0;
    in.heading = rng.uniformDouble() * 6.28;
    in.verticalSpeed = rng.uniformDouble() * 30.0 - 20.0;
    apps::setEgpwsInputs(env, in);
  } else if (app == "weaa") {
    apps::WeaaInputs in;
    in.oy = -60.0 + rng.uniformDouble() * 120.0;
    in.lx = rng.uniformDouble() * 200.0;
    in.gamma0 = 150.0 + rng.uniformDouble() * 400.0;
    apps::setWeaaInputs(env, in);
  } else {
    apps::setPolkaInputs(env, polkaConfig(),
                         apps::makePolkaFrame(polkaConfig(), seed));
  }
}

/// Runs the simulator `trials` times with random inputs, returns the
/// maximum observed makespan (the "high watermark" execution). Trials are
/// independent probes: each starts from the same zero environment and only
/// the input seed differs. (Consecutive-step trajectories — block state
/// carried from one step into the next — are deliberately *not* covered
/// here; probe the bound with i.i.d. inputs, use sim::Simulator directly
/// for stateful runs.) Independence is what lets trials run through the
/// shared support::parallelFor layer when `threads != 1`
/// (support::parallelFor convention: 0 = hardware threads). Every trial
/// writes its own slot and the maximum is reduced in trial order, so the
/// result is bit-identical for any thread count.
inline adl::Cycles observedWorst(const core::ToolchainResult& result,
                                 const adl::Platform& platform,
                                 const std::string& app, int trials,
                                 int threads = 1) {
  const sim::Simulator simulator(result.program, platform);
  ir::Environment base = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) base[name] = value;
  std::vector<adl::Cycles> makespans(static_cast<std::size_t>(trials), 0);
  support::parallelFor(
      makespans.size(), threads, [&](std::size_t t) {
        ir::Environment env = base;
        setInputs(app, env, 1000 + static_cast<std::uint64_t>(t));
        makespans[t] = simulator.step(env).makespan;
      });
  adl::Cycles worst = 0;
  for (adl::Cycles m : makespans) worst = std::max(worst, m);
  return worst;
}

inline void printHeader(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// The `bench_parallel_*` binaries take no arguments; any argument is a
/// usage error (exit 2) rather than silently ignored.
inline void rejectArguments(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    std::exit(2);
  }
}

/// One sequential-vs-pooled comparison of a parallel-infrastructure bench.
struct ParallelBenchRow {
  std::string app;
  std::string phase;      ///< optional sub-row label ("" = none)
  std::size_t items = 0;  ///< tasks / feedback points under comparison
  double seqMs = 0.0;
  double pooledMs = 0.0;
  bool identical = false;
  [[nodiscard]] double speedup() const {
    return pooledMs > 0.0 ? seqMs / pooledMs : 0.0;
  }
};

/// Prints the rows of a `bench_parallel_*` run as a streaming table plus
/// a totals line. finish() returns the process exit code: 0 iff every row
/// was bit-identical, so CI treats any determinism mismatch as a failure.
class ParallelBenchReport {
 public:
  explicit ParallelBenchReport(std::string itemsHeader)
      : itemsHeader_(std::move(itemsHeader)) {}

  void addRow(ParallelBenchRow row) {
    if (rows_.empty()) {
      std::printf("%-8s %8s %-8s %12s %12s %9s  %s\n", "app",
                  itemsHeader_.c_str(), "phase", "seq(ms)", "pooled(ms)",
                  "speedup", "identical?");
    }
    std::printf("%-8s %8zu %-8s %12.2f %12.2f %8.2fx  %s\n", row.app.c_str(),
                row.items, row.phase.empty() ? "-" : row.phase.c_str(),
                row.seqMs, row.pooledMs, row.speedup(),
                row.identical ? "yes" : "NO (BUG)");
    rows_.push_back(std::move(row));
  }

  /// Prints the totals line; returns the process exit code.
  [[nodiscard]] int finish() const {
    double totalSeq = 0.0;
    double totalPooled = 0.0;
    bool allIdentical = true;
    for (const ParallelBenchRow& row : rows_) {
      totalSeq += row.seqMs;
      totalPooled += row.pooledMs;
      allIdentical = allIdentical && row.identical;
    }
    std::printf("%-8s %8s %-8s %12.2f %12.2f %8.2fx  %s\n", "total", "-", "-",
                totalSeq, totalPooled,
                totalPooled > 0.0 ? totalSeq / totalPooled : 0.0,
                allIdentical ? "yes" : "NO (BUG)");
    return allIdentical ? 0 : 1;
  }

 private:
  std::string itemsHeader_;
  std::vector<ParallelBenchRow> rows_;
};

}  // namespace argo::bench
