// Quickstart: the complete ARGO flow (the paper's Figure 1) on a small
// signal-processing diagram.
//
//   1. describe the application as an Xcos-style dataflow model,
//   2. compile it to the C-subset IR,
//   3. run the tool-chain: transformations, HTG extraction, WCET-aware
//      scheduling, explicit parallel program, code- and system-level WCET,
//      cross-layer feedback,
//   4. validate the bound against the timing simulator,
//   5. generate the C code of one tile.
#include <cstdio>

#include "adl/platform.h"
#include "apps/egpws.h"
#include "codegen/codegen.h"
#include "core/report.h"
#include "core/toolchain.h"
#include "model/blocks.h"
#include "model/scilab.h"
#include "sim/simulator.h"

int main() {
  using namespace argo;

  // --- 1. Model: moving-average + envelope detector over a sample block.
  model::Diagram diagram("quickstart");
  const ir::Type vec = ir::Type::array(ir::ScalarKind::Float64, {64});
  const auto in = diagram.add<model::InputBlock>("samples", vec);
  const auto gain = diagram.add<model::GainBlock>("preamp", 2.5);
  diagram.connect(in, gain);
  const auto square = diagram.add<model::ProductBlock>("square", 2);
  diagram.connect(gain, 0, square, 0);
  diagram.connect(gain, 0, square, 1);
  const auto smooth = diagram.add<model::ScilabBlock>(
      "smooth",
      "for i = 2:63\n"
      "  y(i) = 0.25*u(i-1) + 0.5*u(i) + 0.25*u(i+1)\n"
      "end\n"
      "y(1) = u(1)\n"
      "y(64) = u(64)\n",
      std::vector<model::scilab::PortSpec>{{"u", vec}},
      std::vector<model::scilab::PortSpec>{{"y", vec}});
  diagram.connect(square, 0, smooth, 0);
  const auto peak = diagram.add<model::ReduceBlock>(
      "peak", model::ReduceBlock::Op::Max);
  diagram.connect(smooth, 0, peak, 0);
  const auto out = diagram.add<model::OutputBlock>("peak_out");
  diagram.connect(peak, 0, out, 0);

  // --- 2./3. Tool-chain on the Recore-style bus platform.
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  core::ToolchainOptions options;
  const core::Toolchain toolchain(platform, options);
  const core::ToolchainResult result = toolchain.run(diagram);
  std::printf("%s\n", result.reportText().c_str());

  // --- 4. Simulate one step and compare with the bound.
  sim::Simulator simulator(result.program, platform);
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;
  ir::Value samples = ir::Value::zeros(vec);
  for (int i = 0; i < 64; ++i) {
    samples.setFloat(i, 0.1 * i - 2.0);
  }
  env["samples"] = samples;
  codegen::InputTrace trace;
  trace.steps.push_back(env);
  const sim::StepResult observed = simulator.step(env);

  std::printf("observed makespan:  %lld cycles\n",
              static_cast<long long>(observed.makespan));
  std::printf("static WCET bound:  %lld cycles\n",
              static_cast<long long>(result.system.makespan));
  std::printf("bound holds:        %s\n",
              observed.makespan <= result.system.makespan ? "yes" : "NO!");
  std::printf("peak output:        %f\n", env.at("peak_out").getFloat());

  // Cross-layer interface views (Sec. II-E): schedule Gantt + bottlenecks.
  std::printf("\n%s\n%s\n", core::renderGantt(result).c_str(),
              core::renderBottlenecks(result, 6).c_str());

  // --- 5. The C unit of the first tile that runs a task, as --emit-c
  // writes it: one function per task, then the tile's static dispatch
  // table with each slot's Wait/Signal events.
  const codegen::Emission emission = toolchain.emitC(result, trace);
  const std::string& unit = emission.cUnits.front();
  std::printf("\n--- generated code, %s ---\n%s", unit.c_str(),
              emission.file(unit).contents.c_str());
  return observed.makespan <= result.system.makespan ? 0 : 1;
}
