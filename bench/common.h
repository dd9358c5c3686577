// Shared helpers for the experiment harness. Each bench binary regenerates
// one experiment of the paper-derived index (E1..E10) and prints a small
// table with the expected shape stated inline.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/egpws.h"
#include "apps/polka.h"
#include "apps/weaa.h"
#include "core/toolchain.h"
#include "sim/simulator.h"
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
/// for stateful runs.)
inline adl::Cycles observedWorst(const core::ToolchainResult& result,
                                 const adl::Platform& platform,
                                 const std::string& app, int trials) {
  const sim::Simulator simulator(result.program, platform);
  ir::Environment base = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) base[name] = value;
  adl::Cycles worst = 0;
  for (int t = 0; t < trials; ++t) {
    ir::Environment env = base;
    setInputs(app, env, 1000 + static_cast<std::uint64_t>(t));
    worst = std::max(worst, simulator.step(env).makespan);
  }
  return worst;
}

inline void printHeader(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

}  // namespace argo::bench
