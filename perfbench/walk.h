// The layer walk: core::Toolchain::run's stage sequence redone from each
// module's public functions, with one benchmark-owned span around every
// call into a layer.
//
// The walk is what the traced run measures instead of Toolchain::run, so
// every layer's cost is timed from outside the program. It computes each
// point's policy-independent prefix once (transforms, sequential WCET,
// HTG build, one expansion and per-task timing table per granularity),
// which is what scenarios::runEval's stage cache does, then schedules
// every candidate of the feedback ladder per policy. The benchmark checks
// every walked unit against Toolchain::run (bound, chosen granularity,
// schedule label, sequential WCET and transformed IR text), so a walk that
// drifts from the program fails the traced run.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/toolchain.h"
#include "model/diagram.h"
#include "support/trace.h"

namespace perfbench {

/// Opens a benchmark-owned span named after the layer it times, tagged
/// with the point it serves. Inert while tracing is off.
struct LayerSpan {
  LayerSpan(const std::string& layer, const std::string& point);
  argo::support::TraceSpan span;
};

/// The per-unit options both callers the workloads stand for apply to a
/// base configuration: the policy under test, interference awareness off
/// only for the contention-oblivious baseline, and an inline exploration.
[[nodiscard]] argo::core::ToolchainOptions unitOptions(
    const argo::core::ToolchainOptions& base, const std::string& policy);

/// One policy's outcome on a walked point.
struct WalkedUnit {
  std::string policy;
  std::string scheduleLabel;  ///< Schedule::policy of the chosen candidate.
  argo::adl::Cycles bound = 0;
  int chosenChunks = 0;
  argo::par::ParallelProgram program;  ///< Points into WalkedPoint::graphs.
};

/// Everything the walk produced for one point. Move-only: `program`s
/// point into `graphs`, whose tasks point into `fn`.
struct WalkedPoint {
  std::unique_ptr<argo::ir::Function> fn;  ///< Transformed function.
  std::string irText;
  argo::adl::Cycles sequentialWcet = 0;
  std::map<int, argo::htg::TaskGraph> graphs;  ///< By chunks per loop.
  std::vector<WalkedUnit> units;               ///< In `policies` order.
};

/// Walks one point through every policy in `policies`.
[[nodiscard]] WalkedPoint walkPoint(const std::string& pointId,
                                    const argo::model::CompiledModel& model,
                                    const argo::adl::Platform& platform,
                                    const argo::core::ToolchainOptions& base,
                                    const std::vector<std::string>& policies);

}  // namespace perfbench
