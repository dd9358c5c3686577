// Batch policy evaluation over a generated scenario matrix.
//
// runEval() crosses the workload generator (scenarios/generator.h) with a
// platform sweep (scenarios/sweep.h) and runs *every requested scheduling
// policy* on every scenario through the full tool-chain — cross-layer
// feedback exploration, system-level WCET bound, and a simulator check
// that the observed makespan stays within the bound. This is the standing
// source of the repo's perf trajectory: tools/argo_eval drives it from the
// CLI and CI uploads its JSON report per PR.
//
// Parallelism and determinism: the batch runs on the support::TaskGraph
// dependency-graph executor (support/graph.h). Each scenario's generation
// is a shared upstream node, each (scenario, platform) cell has a prefix
// node that warms the policy-independent stages once in the batch's one
// stage cache, and every (cell, policy) unit is one node after its cell's
// prefix that runs the tool-chain and then its simulator probes. Edges sit
// only on those true data dependences, so independent units overlap
// instead of rendezvousing at a batch-wide barrier. Every unit writes into
// its own slot and the report is assembled strictly in unit order
// afterwards, so the report is bit-identical for any thread count (the
// ladder-order rule of docs/ARCHITECTURE.md) and equal, field for field,
// to running every unit alone on a fresh cache — the differential oracles
// of tests/eval_test.cpp. toJson() uses fixed formatting; byte-identical
// values make byte-identical documents, which CI checks by diffing
// --threads 1 vs --threads 8 runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache.h"
#include "core/toolchain.h"
#include "scenarios/generator.h"
#include "scenarios/sweep.h"

namespace argo::scenarios {

using adl::Cycles;

/// Tool-chain configuration trimmed for batch runs: a short granularity
/// ladder ({1, 2, 4}), fewer annealing iterations (1200) and a 100k
/// branch-and-bound node budget keep a 50-scenario matrix in CI-friendly
/// time; everything else is the Toolchain default. The returned value is
/// the EvalOptions::toolchain default — override fields freely.
[[nodiscard]] core::ToolchainOptions defaultEvalToolchainOptions();

/// How scenarios are paired with platform sweep cases.
enum class SweepMode {
  /// Scenario i runs on sweep case i % caseCount (the default): every
  /// case is exercised without crossing the whole matrix.
  Modulo,
  /// Every scenario runs on every sweep case — the paper-style full
  /// design-space cross product. Rows are ordered scenario-major, sweep
  /// case next, policy innermost; cells sharing a scenario reuse the
  /// stage prefix through the cache.
  Cross,
};

/// Canonical lower-case name ("modulo" / "cross") — the JSON field value
/// and the `--sweep-mode` CLI spelling.
[[nodiscard]] const char* sweepModeName(SweepMode mode) noexcept;

/// The sweep-case index scenario `scenarioIndex` is paired with in
/// SweepMode::Modulo — the one definition of the documented
/// `i % caseCount` rule. The graph nodes and the report assembly go
/// through the cell list derived from this helper.
[[nodiscard]] inline std::size_t moduloSweepCase(std::size_t scenarioIndex,
                                                 std::size_t sweepCases) {
  return scenarioIndex % sweepCases;
}

/// Configuration of one batch run.
struct EvalOptions {
  /// Workload axis (the generator's seed is the batch seed).
  GeneratorOptions generator;
  /// Platform axis; pairing with scenarios is selected by `sweepMode`.
  SweepOptions sweep;
  /// Scenario/platform pairing (default Modulo; Cross runs the full
  /// scenario x platform matrix).
  SweepMode sweepMode = SweepMode::Modulo;
  /// Number of generated scenarios (count, default 20).
  int scenarioCount = 20;
  /// Registry names of the policies to compare (default: empty = every
  /// registered policy, in sorted registry order).
  std::vector<std::string> policies;
  /// Worker threads of the batch graph, support::effectiveParallelism
  /// convention (0 = hardware threads, 1 = sequential; default 1). The
  /// report is bit-identical for any value.
  int threads = 1;
  /// Simulator probes per (scenario, policy) run, each from an
  /// independently seeded random input (count, default 3; 0 skips the
  /// simulator check entirely — observed/tightness read as 0).
  int simTrials = 3;
  /// Base tool-chain configuration for every unit. The batch overrides,
  /// per unit: the policy under test, interferenceAware (off for
  /// "contention_oblivious", mirroring argo_cc), and the cache (the
  /// batch's one core::ToolchainCache, shared by every unit).
  core::ToolchainOptions toolchain = defaultEvalToolchainOptions();
  /// On-disk cache directory (`argo_eval --cache-dir` / ARGO_CACHE_DIR):
  /// when non-empty, the batch cache gets a support::DiskCache tier, so
  /// a later batch over the same directory, in this process or a fresh
  /// one, starts warm. It is the one way a cache crosses batches.
  /// Byte-identity is unchanged (the disk-tier differential oracle in
  /// tests/eval_test.cpp + CI).
  std::string cacheDir;
};

/// Result of one (scenario, policy) unit.
struct PolicyOutcome {
  std::string policy;         ///< Requested registry name.
  std::string scheduleLabel;  ///< Schedule::policy — reveals fallbacks.
  int tasks = 0;              ///< Task count of the chosen candidate.
  int tilesUsed = 0;
  int chosenChunks = 0;       ///< Granularity the feedback loop picked.
  Cycles sequentialWcet = 0;  ///< Single-core reference bound.
  Cycles bound = 0;           ///< System-level WCET (the guarantee).
  Cycles observed = 0;        ///< Worst simulated makespan (0 if skipped).
  bool simSafe = true;        ///< observed <= bound for every trial.
  double wallMs = 0.0;        ///< Unit wall time (excluded from the JSON
                              ///< unless includeTimings — it is the one
                              ///< thread-count-dependent field).

  /// observed / bound in [0, 1]: how tight the guarantee is (0 when the
  /// simulator check was skipped).
  [[nodiscard]] double tightness() const {
    return bound == 0 ? 0.0
                      : static_cast<double>(observed) /
                            static_cast<double>(bound);
  }
  /// core::guaranteedSpeedup(sequentialWcet, bound): the guaranteed
  /// speedup of the parallel bound over the single-core bound.
  [[nodiscard]] double boundSpeedup() const {
    return core::guaranteedSpeedup(sequentialWcet, bound);
  }
};

/// All policies' outcomes on one (scenario, platform case) cell — one
/// report row group. Modulo mode has one cell per scenario; Cross mode
/// has scenarios x sweep cases of them.
struct ScenarioResult {
  std::string scenario;
  std::uint64_t seed = 0;
  int layers = 0;
  int nodes = 0;
  int arrayLen = 0;
  std::string platformCase;  ///< Sweep case name the scenario ran on.
  int cores = 0;             ///< Tile count of that case.
  /// One outcome per requested policy, in request order.
  std::vector<PolicyOutcome> outcomes;
  /// Smallest bound over `outcomes`: every policy that reaches it is
  /// "best" in the report.
  Cycles bestBound = 0;
  /// The one policy with the strictly smallest bound — the per-scenario
  /// "policy winner" of the report. Empty when two or more policies tie
  /// at bestBound.
  std::string winner;
};

/// The whole batch.
struct EvalReport {
  std::uint64_t seed = 0;
  SweepMode sweepMode = SweepMode::Modulo;
  std::size_t scenarioCount = 0;   ///< Distinct generated scenarios (S).
  std::size_t platformCases = 0;   ///< Sweep cases (C).
  std::vector<std::string> policies;  ///< Resolved request order.
  std::vector<ScenarioResult> scenarios;  ///< One entry per cell.
  bool allSimSafe = true;
  /// Counters of the batch's stage cache. Rendered only under
  /// includeTimings, as the cache.* and disk.* keys of the `metrics`
  /// block: the hit/wait split is thread-timing-dependent, so it must
  /// stay out of the canonical report.
  core::ToolchainCacheStats cacheStats;

  /// Renders the machine-readable report: one JSON document
  /// ({"bench":..., "rows":[...], "summary":...}), one row per (cell,
  /// policy) unit plus per-policy aggregates. Deterministic: fixed field
  /// order and fixed float formatting; byte-identical across thread
  /// counts and disk-tier states.
  /// Wall-clock fields and the `metrics` block appear only when
  /// `includeTimings` (they vary run to run).
  [[nodiscard]] std::string toJson(bool includeTimings = false) const;
};

/// Runs the batch. Throws support::ToolchainError on an unknown policy
/// name (listing the registered ones) or invalid generator/sweep options.
[[nodiscard]] EvalReport runEval(const EvalOptions& options);

}  // namespace argo::scenarios
