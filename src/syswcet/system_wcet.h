// System-level WCET analysis.
//
// Paper Section II-D: "System-level WCET estimation builds on the parallel
// program representation to precisely identify resource conflicts. This is
// achieved through (i) a static analysis that determines as accurately as
// possible if several code snippets may happen in parallel and (ii) a cost
// model of the interference derived from the platform abstract models."
//
// Implementation:
//  * Happens-before (HB): program order per core + signal->wait edges,
//    closed transitively. Two tasks May-Happen-in-Parallel (MHP) iff
//    neither reaches the other.
//  * Interference from MHP: a task's contender count is one plus the
//    number of distinct other tiles hosting a task that may happen in
//    parallel with it and uses the interconnect. The count is derived once
//    from the structural MHP relation, which holds for any interleaving
//    (worst-case windows would miss executions that run earlier than their
//    worst case, so they are not used). Every task's duration is then its
//    code-level WCET plus sync overhead plus (sharedAccesses + sync flag
//    accesses) x (worst-case access under its contender count -
//    uncontended access). The bound is the longest path over HB under
//    those durations, each communication edge paying its worst-case
//    transfer under the producer's contender count.
//  * Pessimistic baseline (InterferenceMethod::AllContenders): every access
//    pays for all cores being live, the assumption a WCET tool must make
//    for a manually parallelized program whose parallel structure it cannot
//    see (the parMERASA observation of Section III-C).
#pragma once

#include <vector>

#include "par/parallel_program.h"

namespace argo::syswcet {

using adl::Cycles;

/// How interference is accounted.
enum class InterferenceMethod : std::uint8_t {
  MhpRefined,     ///< Contenders from the MHP relation (the ARGO approach).
  AllContenders,  ///< Every core contends always (pessimistic baseline).
};

/// Per-task outcome.
struct TaskBound {
  Cycles start = 0;      ///< Worst-case release time.
  Cycles finish = 0;     ///< Worst-case completion time.
  Cycles inflated = 0;   ///< Duration including interference and sync.
  Cycles interference = 0;  ///< Interference share of `inflated`.
  int contenders = 1;    ///< Contender count the access costs assumed.

  bool operator==(const TaskBound&) const = default;
};

/// Whole-system result.
struct SystemWcet {
  Cycles makespan = 0;
  std::vector<TaskBound> tasks;  ///< Indexed like TaskGraph::tasks.

  /// Field-complete equality: the determinism tests/benches compare whole
  /// results, and a defaulted == keeps them covering future fields.
  bool operator==(const SystemWcet&) const = default;
};

/// Computes the system-level WCET bound of an explicit parallel program.
/// `timings` are the code-level results from sched::computeTaskTimings.
/// The `int` is ignored; ROADMAP item 2's benchmark-only change deletes it.
[[nodiscard]] SystemWcet analyzeSystem(
    const par::ParallelProgram& program, const adl::Platform& platform,
    const std::vector<sched::TaskTiming>& timings,
    InterferenceMethod method = InterferenceMethod::MhpRefined, int = 1);

/// MHP matrix: result[i][j] is true when tasks i and j are unordered by
/// happens-before (and i != j). Symmetric. analyzeSystem derives its
/// contender counts from the same matrix.
[[nodiscard]] std::vector<std::vector<bool>> mayHappenInParallel(
    const par::ParallelProgram& program);

}  // namespace argo::syswcet
