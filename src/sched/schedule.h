// Schedule representation and validation.
//
// Paper Section II-B: "The HTG obtained from the input program is then
// mapped on the target platform during a scheduling/mapping stage which
// computes an optimized schedule and mapping of tasks to processors."
//
// A Schedule is a static (offline) mapping: every task gets a tile, a start
// and a finish time, all in worst-case cycles. Times embed the uncontended
// WCET of each task plus worst-case communication; interference inflation
// is applied afterwards by the system-level analysis (src/syswcet).
#pragma once

#include <string>
#include <vector>

#include "adl/platform.h"
#include "htg/htg.h"
#include "wcet/analyzer.h"

namespace argo::sched {

using adl::Cycles;

/// Per-task timing facts used by every scheduling policy.
struct TaskTiming {
  /// Uncontended WCET per tile (indexed by tile; heterogeneous platforms
  /// make this a real table, not a constant).
  std::vector<Cycles> wcetByTile;
  /// Worst-case number of shared-memory accesses (tile independent).
  std::int64_t sharedAccesses = 0;

  /// Field-complete equality: the determinism tests/benches compare whole
  /// tables, and a defaulted == keeps them covering future fields.
  bool operator==(const TaskTiming&) const = default;
};

/// One scheduled task instance.
struct Placement {
  int task = -1;
  int tile = -1;
  Cycles start = 0;
  Cycles finish = 0;

  bool operator==(const Placement&) const = default;
};

/// A complete static schedule of a TaskGraph on a Platform.
struct Schedule {
  /// Placement per task id (same indexing as TaskGraph::tasks).
  std::vector<Placement> placements;
  /// Task ids per tile, in execution order.
  std::vector<std::vector<int>> tileOrder;
  /// Estimated makespan (max finish).
  Cycles makespan = 0;
  /// Number of tiles that received at least one task.
  int tilesUsed = 0;
  /// Human-readable name of the policy that produced this schedule.
  std::string policy;

  /// Field-complete equality (see TaskTiming::operator==).
  bool operator==(const Schedule&) const = default;
};

/// Computes TaskTiming for every task of `graph` on `platform` using the
/// code-level WCET analyzer (one TimingModel per tile), task by task on
/// the calling thread.
/// The `int` is ignored; ROADMAP item 2's benchmark-only change deletes it.
[[nodiscard]] std::vector<TaskTiming> computeTaskTimings(
    const htg::TaskGraph& graph, const adl::Platform& platform, int = 1);

/// Worst-case communication cycles for edge `dep` when producer runs on
/// `fromTile` and consumer on `toTile` (0 when co-located).
[[nodiscard]] Cycles commCost(const adl::Platform& platform,
                              const htg::Dep& dep, int fromTile, int toTile);

/// Structural validation of a schedule: every task placed exactly once on
/// a valid tile, no two tasks overlap on a tile, every dependence satisfied
/// (producer finish + cross-tile communication <= consumer start), and
/// per-task duration >= its uncontended WCET. Returns problems; empty means
/// valid.
[[nodiscard]] std::vector<std::string> validateSchedule(
    const Schedule& schedule, const htg::TaskGraph& graph,
    const adl::Platform& platform, const std::vector<TaskTiming>& timings);

}  // namespace argo::sched
