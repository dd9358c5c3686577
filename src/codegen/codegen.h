// C code-generation backend: lowers a scheduled par::ParallelProgram into
// compilable C — the final "generate parallel C code" step of the paper's
// tool-chain (Section II-C), which the pipeline previously stopped short
// of at sim/.
//
// Emitted file set (emitProgram):
//
//   argo_rt.h   — header-only runtime: event channels for the inter-tile
//                 dependence edges of the parallel program, slot/barrier
//                 primitives for the static dispatch table, trap-checked
//                 integer helpers. See docs/CODEGEN.md for the contract.
//   program.h   — the memory map as C: one byte region per memory of the
//                 adl::Platform (shared memory + one SPM per tile), an
//                 A_<name> accessor macro per variable at the exact
//                 address par::buildParallelProgram assigned, task
//                 prototypes and slot-table externs.
//   tile<t>.c   — one translation unit per tile that received work: one
//                 function per scheduled task (the task's IR lowered by
//                 codegen::Lowerer) plus the tile's slot table in
//                 schedule order, each slot carrying its Wait/Signal
//                 event lists.
//   main.c      — the harness: defines the regions, embeds the recorded
//                 input trace and the constant tables, runs the dispatch
//                 (ExecMode::Sequential merges all tiles' slots by
//                 scheduled start time into one in-order replay;
//                 ExecMode::Threads spawns one pthread per tile, each
//                 walking its own table), and prints every Output
//                 variable after each step in the canonical text format
//                 below.
//
// Canonical output format (the differential-test oracle): per step a
// "-- step K" line, then one "name = value" (scalar) or "name[i] = value"
// (array element) line per Output element in declaration order; doubles
// print as %a hexfloats, ints as %lld. canonicalOutputs()/
// referenceOutputs() render the same bytes from an ir::Evaluator run, so
// `cc emitted && ./prog` can be compared byte-for-byte against the
// interpreter.
//
// Determinism: emitProgram is a pure function of (program, platform,
// constants, trace) — no wall clock, no iteration over unordered
// containers — so the emitted sources are byte-identical across runs and
// across the thread count of a graph that runs the tool-chain (pinned by
// tests/codegen_test).
#pragma once

#include <string>
#include <vector>

#include "adl/platform.h"
#include "ir/evaluator.h"
#include "par/parallel_program.h"

namespace argo::codegen {

/// How the emitted harness executes the scheduled slots.
enum class ExecMode {
  /// One process, one thread: the slots of every tile are merged into a
  /// single time-triggered dispatch order and replayed in-order (the
  /// original differential-replay harness). A wait on an unposted event
  /// traps immediately (exit 3).
  Sequential,
  /// True parallel execution: main.c spawns one pthread per tile that
  /// received work, each walking its own per-tile dispatch table. Event
  /// channels become condvar waits under a global mutex, the per-step
  /// rendezvous is a counted reusable barrier, and a watchdog
  /// (ARGO_WATCHDOG_NS, default 10 s) turns a deadlocked wait into a
  /// loud exit 3. Build with -pthread (docs/CODEGEN.md
  /// "Execution modes").
  Threads,
};

/// Emission options (beyond the program/platform/constants/trace inputs).
struct EmitOptions {
  ExecMode mode = ExecMode::Sequential;
  /// Emit per-slot runtime checks of the schedule's start/finish cycles
  /// against a monotonic step-relative clock: a slot whose start or
  /// finish exceeds cycles * ARGO_NS_PER_CYCLE + ARGO_ASSERT_SLACK_NS
  /// (both env-overridable) exits 4 — the WCET bound checked by
  /// execution, not only by simulation.
  bool runtimeAsserts = false;
};

/// One emitted source file.
struct SourceFile {
  std::string name;      ///< File name within the emission directory.
  std::string contents;  ///< Complete file text.
};

/// Recorded inputs the harness replays: one environment per synchronous
/// step. Only Input-role variables are read; every Input of the function
/// must be present in every step (same rule as ir::Evaluator::run).
struct InputTrace {
  std::vector<ir::Environment> steps;
};

/// A complete emission.
struct Emission {
  std::vector<SourceFile> files;
  /// Names of the .c translation units in files, in link order — what a
  /// build driver compiles (`cc -std=c11 <cUnits> -lm`).
  std::vector<std::string> cUnits;

  [[nodiscard]] const SourceFile& file(const std::string& name) const;
};

/// Lowers `program` to C. Throws support::ToolchainError when the trace
/// is empty or misses an input, a constant or trace value exceeds its
/// declared element width, or the program uses a construct that cannot
/// be lowered (unknown intrinsic, rank mismatch). Runtime divergences
/// from the evaluator's error behaviour — notably the absent per-access
/// index range check — are documented in docs/CODEGEN.md.
[[nodiscard]] Emission emitProgram(const par::ParallelProgram& program,
                                   const adl::Platform& platform,
                                   const ir::Environment& constants,
                                   const InputTrace& trace,
                                   const EmitOptions& options = {});

/// The verbatim text of the emitted argo_rt.h runtime header (exposed so
/// the runtime-primitive tests can compile it standalone).
[[nodiscard]] const char* runtimeHeader() noexcept;

/// Writes every file of `emission` into directory `dir` (created,
/// including parents, when absent). Existing files are overwritten.
void writeSources(const std::string& dir, const Emission& emission);

/// Renders one step's outputs of `env` in the canonical text format.
[[nodiscard]] std::string canonicalOutputs(const ir::Function& fn,
                                           const ir::Environment& env,
                                           int step);

/// The oracle: runs ir::Evaluator over the trace (states persist across
/// steps, exactly like the emitted harness) and returns the concatenated
/// canonical output text the emitted program must match byte-for-byte.
[[nodiscard]] std::string referenceOutputs(const ir::Function& fn,
                                           const ir::Environment& constants,
                                           const InputTrace& trace);

}  // namespace argo::codegen
