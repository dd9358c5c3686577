// Seeded random scenario generation: synthetic workloads for the batch
// evaluator (tools/argo_eval) and the policy benchmarks.
//
// The paper's claim is end-to-end — WCET-guaranteed parallel code across
// *many* applications — but the repo ships only three avionics models. This
// module mass-produces structurally diverse step functions the full
// tool-chain can digest: layer-by-layer hierarchical task graphs in the
// style of TGFF (random layered DAGs with fan-in/fan-out), realized
// directly as ARGO IR so extraction, scheduling, WCET analysis and
// simulation all run unmodified.
//
// Shape of a generated function:
//
//   inputs u0..uk ──> layer 1 nodes ──> ... ──> layer L nodes ──> sink y
//
// Every node is realized as top-level statements the HTG extractor sees
// directly:
//  * a *parallel* node — one element-wise for-loop writing its own array
//    from 1..3 upstream arrays/scalars through an arithmetic chain
//    (expandable by htg::expand, like the paper's fine-grain tasks), or
//  * an *accumulator* node — a loop-carried scalar reduction (sequential
//    by construction; exercises the non-expandable path). Accumulators
//    emit one extra top-level statement, the scalar init `s = 0`, which
//    becomes its own tiny HTG node unless mergeScalarChains folds it —
//    so Scenario::nodes counts *generator* nodes, not HTG nodes or
//    expanded tasks; or
//  * the *sink* — an element-wise loop combining every otherwise
//    unconsumed value into the output array, so the DAG has one terminal.
//
// A second shape, Shape::StencilChain, swaps the layered DAG for
// independent chains of 1-D stencil stages (radius-r clamped windows) —
// deep dependence chains with regular reads, the structure the paper's
// signal-processing kernels exhibit. See Shape below.
//
// Determinism: a scenario is a pure function of (options, index). All
// randomness comes from one support::Rng seeded with scenarioSeed(seed,
// index); no time, no global state. The same (options, index) produces the
// same IR on every platform, thread count and run — the golden-graph test
// in tests/scenarios_test.cpp pins this down byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/diagram.h"

namespace argo::scenarios {

/// Workload shapes the generator can produce.
enum class Shape : std::uint8_t {
  /// TGFF-style random layered DAG (the original shape; see the header
  /// comment above).
  LayeredDag,
  /// `width` independent chains of `layers` 1-D stencil stages: every
  /// stage reads a clamped radius-`stencilRadius` window of its
  /// predecessor array (min/max index clamping at the borders), and a
  /// chain may be terminated by a scalar reduction (accumulatorFraction).
  /// Long dependence chains with wide-but-regular reads — the sweep spot
  /// the layered DAG does not cover.
  StencilChain,
};

/// Stable CLI name of a shape ("layered_dag", "stencil_chain").
[[nodiscard]] const char* shapeName(Shape shape) noexcept;

/// Inverse of shapeName; throws support::ToolchainError listing the valid
/// names when `name` is unknown.
[[nodiscard]] Shape shapeFromName(const std::string& name);

/// Knobs of the random workload generator. All ranges are inclusive and
/// every draw is uniform unless stated otherwise.
struct GeneratorOptions {
  /// Base seed of the scenario family (unitless, default 1). Scenario
  /// `index` derives its own seed via scenarioSeed(seed, index).
  std::uint64_t seed = 1;
  /// Hidden DAG layers between the inputs and the sink (count, default
  /// 2..4). Depth of the generated hierarchy, excluding inputs and sink.
  int minLayers = 2;
  int maxLayers = 4;
  /// Nodes per hidden layer and number of input arrays (count, default
  /// 1..3). Controls the fan-out available to the scheduler.
  int minWidth = 1;
  int maxWidth = 3;
  /// Array length shared by every array of the scenario (elements, default
  /// 8..48). Also the trip count of every generated loop, and — times 8
  /// bytes — the payload of every array dependence edge.
  int minArrayLen = 8;
  int maxArrayLen = 48;
  /// Communication-to-computation ratio knob (dimensionless, default 1).
  /// Edge payloads are fixed by the array length, so CCR is steered from
  /// the compute side: every node's arithmetic chain runs
  /// 4 * workFactor / ccr operations per element. Raising ccr makes
  /// scenarios communication-bound, lowering it compute-bound.
  double ccr = 1.0;
  /// WCET spread between the lightest and heaviest node (ratio >= 1,
  /// default 4). Node work factors are drawn log-uniformly from
  /// [1, wcetSpread]; 1 makes all nodes equally heavy.
  double wcetSpread = 4.0;
  /// Probability that a hidden node is a sequential scalar accumulator
  /// instead of a parallel element-wise loop (fraction in [0, 1], default
  /// 0.25). Accumulators are non-expandable, so they bound the achievable
  /// parallelism the way the paper's sequential regions do.
  double accumulatorFraction = 0.25;
  /// Workload shape (default LayeredDag). For StencilChain, `minLayers..
  /// maxLayers` is the stage count per chain and `minWidth..maxWidth` the
  /// number of independent chains.
  Shape shape = Shape::LayeredDag;
  /// Stencil window half-width for Shape::StencilChain (elements, default
  /// 1 — a 3-point stencil). 0 degenerates to point-wise copies; other
  /// shapes ignore it.
  int stencilRadius = 1;
};

/// One generated workload plus the metadata the eval report carries.
struct Scenario {
  std::string name;        ///< "scn<index>", stable across runs.
  std::uint64_t seed = 0;  ///< Derived seed actually used (scenarioSeed).
  int layers = 0;          ///< Hidden layers generated.
  int nodes = 0;           ///< Generated nodes incl. sink, excl. inputs.
  int arrayLen = 0;        ///< Elements per array (= loop trip count).
  /// The step function (plus an empty constant table), ready for
  /// core::Toolchain::run. Owns the ir::Function.
  model::CompiledModel model;
};

/// The derived seed of scenario `index` within the family `base`:
/// SplitMix64-mixed so neighbouring indices share no low-bit structure.
[[nodiscard]] std::uint64_t scenarioSeed(std::uint64_t base,
                                         int index) noexcept;

/// Generates scenario `index` of the family described by `options`.
/// Deterministic in (options, index); the returned function always passes
/// ir::validate. Throws support::ToolchainError on out-of-range knobs
/// (empty ranges, ccr <= 0, wcetSpread < 1).
[[nodiscard]] Scenario generateScenario(const GeneratorOptions& options,
                                        int index);

/// Generates scenarios 0..count-1. Equivalent to calling generateScenario
/// in a loop; provided for call-site brevity (the batch evaluator calls
/// generateScenario once per scenario instead, in that scenario's graph
/// node).
[[nodiscard]] std::vector<Scenario> generateScenarios(
    const GeneratorOptions& options, int count);

}  // namespace argo::scenarios
