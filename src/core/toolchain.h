// The ARGO tool-chain driver: the workflow of the paper's Figure 1.
//
//   model  ->  IR  ->  transforms  ->  HTG  ->  schedule/map  ->
//   explicit parallel program  ->  code-level + system-level WCET
//            ^                                        |
//            +---------- cross-layer feedback --------+
//
// The driver owns the cross-layer iterative optimization of Section II-E:
// the system-level WCET of each candidate parallelization (task granularity
// x scheduling policy) is fed back, and the best candidate is kept. This is
// the tool-chain's answer to the phase-ordering problem: granularity
// decisions cannot be made well before interference costs are known, so
// they are revisited after measuring them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adl/platform.h"
#include "codegen/codegen.h"
#include "htg/htg.h"
#include "model/diagram.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "syswcet/system_wcet.h"

namespace argo::core {

using adl::Cycles;

class ToolchainCache;

/// Driver configuration.
struct ToolchainOptions {
  /// Scheduling options forwarded to every candidate evaluation,
  /// including the policy registry name (sched/options.h).
  sched::SchedOptions sched;
  /// Candidate chunks-per-loop values explored by the feedback loop
  /// (counts, default empty = the power-of-two ladder {1, 2, ...,
  /// 2*cores}).
  std::vector<int> chunkCandidates;
  /// Run the predictability transforms — constant folding, index-set
  /// splitting, loop fusion (default true).
  bool runTransforms = true;
  /// Run the scratchpad allocation pass (default true).
  bool spmAllocation = true;
  /// Merge consecutive loop-free HTG nodes into one task (default true;
  /// removes the synchronization overhead of scalar glue code — see
  /// htg::ExpandOptions).
  bool mergeScalarChains = true;
  /// Interference accounting for the system-level analysis (default
  /// MhpRefined, the ARGO approach; AllContenders is the pessimistic
  /// baseline).
  syswcet::InterferenceMethod interference =
      syswcet::InterferenceMethod::MhpRefined;
  /// Ignored and unkeyed; ROADMAP item 2's benchmark-only change deletes it.
  int explorationThreads = 0;
  /// Content-hash stage cache (core/cache.h). run() memoizes its stages —
  /// transforms, sequential WCET, HTG expansion, per-task timings,
  /// schedule/system-WCET — on hashes of exactly the inputs each stage
  /// observes, and a cache shared across runs (a platform sweep, an
  /// incremental re-run, a batch) reuses everything
  /// whose inputs did not change. null (the default) gives every run a
  /// fresh cache of its own, dropped when the run returns. Results are
  /// byte-identical either way.
  std::shared_ptr<ToolchainCache> cache;
};

/// The guaranteed speedup `sequential / bound` of a parallel WCET bound
/// over the single-core WCET: 1 when both are 0, +infinity when only the
/// bound is 0 (reportText prints that as "unbounded").
[[nodiscard]] double guaranteedSpeedup(Cycles sequential, Cycles bound);

/// Wall-clock duration of one tool-chain stage (for E10).
struct StageTiming {
  std::string stage;
  double milliseconds = 0.0;
};

/// One point of the cross-layer feedback exploration (for E8).
struct FeedbackPoint {
  int chunksPerLoop = 0;
  /// 0 = all cores available; 1 = the sequential-mapping fallback the
  /// feedback loop always evaluates (so parallelization is only chosen
  /// when it actually beats one core).
  int coreLimit = 0;
  Cycles systemWcet = 0;
  int tasks = 0;
};

/// Everything the tool-chain produced. `fn` and `graph` share the stage
/// values the winning candidate was computed from (core/cache.h), so they
/// stay valid after the cache is gone, `graph->fn == fn.get()`, and the
/// internal pointers (TaskGraph -> Function, ParallelProgram -> TaskGraph)
/// survive moves and copies of the result object.
struct ToolchainResult {
  std::shared_ptr<const ir::Function> fn;
  ir::Environment constants;
  std::shared_ptr<const htg::TaskGraph> graph;
  std::vector<sched::TaskTiming> timings;
  sched::Schedule schedule;
  par::ParallelProgram program;
  syswcet::SystemWcet system;

  /// WCET of the whole (transformed) function on tile 0, single core.
  Cycles sequentialWcet = 0;
  /// guaranteedSpeedup(sequentialWcet, system.makespan).
  [[nodiscard]] double wcetSpeedup() const {
    return guaranteedSpeedup(sequentialWcet, system.makespan);
  }

  std::vector<std::string> passesRun;
  std::vector<StageTiming> stages;
  std::vector<FeedbackPoint> feedback;
  int chosenChunks = 1;

  /// Multi-line human-readable summary (the cross-layer programming
  /// interface of Section II-E, in text form). Stage timings are
  /// wall-clock and vary run to run; pass `includeStageTimings = false`
  /// for a fully deterministic report (used by the determinism tests).
  [[nodiscard]] std::string reportText(bool includeStageTimings = true) const;
};

/// Runs the full tool-chain on a compiled model.
class Toolchain {
 public:
  Toolchain(adl::Platform platform, ToolchainOptions options)
      : platform_(std::move(platform)), options_(std::move(options)) {}

  /// The model is copied (function cloned); the input stays usable.
  [[nodiscard]] ToolchainResult run(const model::CompiledModel& model) const;

  /// Convenience: compile a diagram, then run.
  [[nodiscard]] ToolchainResult run(const model::Diagram& diagram) const;

  /// Warms the policy-independent stage prefix for `model` — transforms,
  /// sequential WCET, every candidate HTG expansion and its per-task
  /// timings — into the attached cache, so subsequent run() calls (for
  /// any policy on this platform) start at the schedule stage. No-op
  /// without an attached cache. scenarios::runEval uses this as the shared
  /// upstream node that per-policy toolchain nodes fan out from on the
  /// TaskGraph executor.
  void warmSharedStages(const model::CompiledModel& model) const;

  /// The emit step (paper Section II-C: "generate C code following the
  /// WCET-aware programming model"): lowers the scheduled parallel program
  /// of a finished run to compilable C, with `trace` as the recorded
  /// inputs the emitted harness replays and `options` selecting the
  /// execution mode of the emitted harness (sequential replay or one
  /// pthread per tile) and the optional runtime deadline asserts. Pure
  /// function of (result, platform, trace, options) — the sources are
  /// byte-identical across runs and thread counts (docs/CODEGEN.md).
  [[nodiscard]] codegen::Emission emitC(
      const ToolchainResult& result, const codegen::InputTrace& trace,
      const codegen::EmitOptions& options = {}) const;

  [[nodiscard]] const adl::Platform& platform() const noexcept {
    return platform_;
  }

 private:
  adl::Platform platform_;
  ToolchainOptions options_;
};

}  // namespace argo::core
