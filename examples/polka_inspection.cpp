// POLKA use case (industrial image processing): in-line glass-stress
// inspection on the KIT-style NoC platform. Demonstrates the hard-real-time
// framing: the line speed dictates a per-frame cycle budget, and the
// tool-chain's WCET bound proves whether the deployment is feasible —
// before running anything.
#include <cstdio>

#include "apps/polka.h"
#include "codegen/codegen.h"
#include "core/toolchain.h"
#include "sim/simulator.h"

int main() {
  using namespace argo;

  const apps::PolkaConfig config;
  const adl::Platform platform = adl::makeKitLeon3Inoc(4, 4);
  const core::Toolchain toolchain(platform, core::ToolchainOptions{});
  const core::ToolchainResult result =
      toolchain.run(apps::buildPolkaDiagram(config));

  // Feasibility check against an in-line inspection budget.
  const adl::Cycles budget = 800'000;  // cycles per container
  std::printf("POLKA glass inspection on %s\n", platform.name().c_str());
  std::printf("  WCET bound per frame: %lld cycles\n",
              static_cast<long long>(result.system.makespan));
  std::printf("  line budget:          %lld cycles\n",
              static_cast<long long>(budget));
  std::printf("  deployment feasible:  %s (proven statically)\n\n",
              result.system.makespan <= budget ? "yes" : "NO");

  sim::Simulator simulator(result.program, platform);
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;

  std::printf("%7s %9s %9s %10s %8s\n", "frame", "defects", "maxDoLP",
              "cycles", "verdict");
  codegen::InputTrace trace;  // the frames' inputs, for the C emission
  for (std::uint64_t frame = 1; frame <= 6; ++frame) {
    // Even frames image pristine containers (uniform intensity).
    std::vector<double> image;
    if (frame % 2 == 0) {
      image.assign(static_cast<std::size_t>(config.mosaicH * config.mosaicW),
                   0.55);
    } else {
      image = apps::makePolkaFrame(config, frame);
    }
    apps::setPolkaInputs(env, config, image);
    trace.steps.push_back(env);
    const sim::StepResult observed = simulator.step(env);
    const double defects = env.at("defect_count_out").getFloat();
    std::printf("%7llu %9.0f %9.3f %10lld %8s\n",
                static_cast<unsigned long long>(frame), defects,
                env.at("max_dolp_out").getFloat(),
                static_cast<long long>(observed.makespan),
                defects > 0 ? "REJECT" : "pass");
  }

  // The C unit of the first tile that runs a task, as --emit-c writes it.
  const codegen::Emission emission = toolchain.emitC(result, trace);
  const std::string& unit = emission.cUnits.front();
  const std::string& source = emission.file(unit).contents;
  std::printf("\n--- generated code for %s (excerpt) ---\n", unit.c_str());
  std::printf("%.1200s%s", source.c_str(),
              source.size() > 1200 ? "\n  ...\n" : "");
  return 0;
}
