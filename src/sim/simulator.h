// Discrete-event multi-core timing simulator.
//
// Substitute for the paper's FPGA platforms (Xentium many-core, Leon3+iNoC;
// Section IV-C): executes an explicit parallel program under the same ADL
// timing parameters the WCET analysis uses, so the safety claim
// "observed execution time <= static bound" is checkable end-to-end.
//
// Execution model:
//  * Each core walks its tile's task order: a task's waits, the task,
//    then its signals. A task runs its IR through the reference
//    interpreter on the shared environment, metering every priced
//    operation; the metered non-shared cost is spread evenly between
//    the task's shared accesses (documented approximation — the IR carries
//    no per-access timestamps).
//  * Shared accesses are arbitrated individually:
//      - round-robin bus: FCFS on the bus; each core has at most one
//        outstanding access, so waits are bounded by (live cores - 1)
//        accesses, within the analytical worst case;
//      - TDMA bus: accesses start at the issuing core's next slot;
//      - NoC: XY-route latency plus FCFS serialization at the memory
//        controller.
//  * A signal or wait costs one arbitrated flag access; consumer data is
//    available after the actual (uncontended) transfer time.
//  * Cores advance in global simulated-time order (the minimum-time
//    runnable core acts next), so values are computed respecting
//    happens-before.
#pragma once

#include <vector>

#include "adl/platform.h"
#include "ir/evaluator.h"
#include "par/parallel_program.h"

namespace argo::sim {

using adl::Cycles;

/// Per-task observation.
struct TaskTrace {
  Cycles start = 0;
  Cycles finish = 0;
  Cycles stall = 0;  ///< Cycles spent waiting for the interconnect.
  std::int64_t sharedAccesses = 0;
};

/// Result of simulating one synchronous step.
struct StepResult {
  Cycles makespan = 0;
  std::vector<TaskTrace> tasks;  ///< Indexed like TaskGraph::tasks.
  Cycles totalStall = 0;
  std::int64_t totalSharedAccesses = 0;
};

/// Simulates an explicit parallel program on its platform.
class Simulator {
 public:
  Simulator(const par::ParallelProgram& program, const adl::Platform& platform);

  /// Runs one synchronous step. `env` must contain the model inputs and
  /// constants; outputs and states are updated in place (so repeated calls
  /// simulate consecutive steps).
  [[nodiscard]] StepResult step(ir::Environment& env) const;

 private:
  const par::ParallelProgram& program_;
  const adl::Platform& platform_;
};

/// Prices a metered execution on a core: operation cycles plus local and
/// scratchpad access cycles. Shared accesses are excluded (they are
/// simulated individually).
[[nodiscard]] Cycles nonSharedCost(const ir::CountingMeter& meter,
                                   const adl::CoreModel& core);

}  // namespace argo::sim
