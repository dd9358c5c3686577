// Explicit parallel program model.
//
// Paper Section II-C: "The result of the scheduling/mapping stage is used
// to transform the initial program representation into an explicit parallel
// program model, in which the synchronizations are made explicit, and the
// final memory address mapping of the variables and the buffers is
// obtained."
//
// A ParallelProgram keeps the schedule's per-tile task order
// (schedule.tileOrder), one event per cross-tile dependence, and for every
// task the events it waits for before it runs and the events it signals
// after it finishes: tile T runs, for each task of tileOrder[T] in turn,
// its waits, the task's IR statements, then its signals. A signal/wait is
// one flag access in shared memory. The address map places every Shared
// variable in shared memory and every Scratchpad variable at an SPM offset
// of its owning tile. This is the representation the system-level WCET
// analysis (src/syswcet), the timing simulator (src/sim) and the C
// emitter (src/codegen) consume.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "adl/platform.h"
#include "htg/htg.h"
#include "sched/schedule.h"

namespace argo::par {

using adl::Cycles;

/// A cross-core dependence made explicit.
struct Event {
  int id = 0;
  int producerTask = -1;
  int consumerTask = -1;
  int producerTile = -1;
  int consumerTile = -1;
  /// Bytes the consumer must see (drives the communication WCET).
  std::int64_t bytes = 0;
};

/// Placement of one variable in the memory map.
struct AddressEntry {
  std::string name;
  ir::Storage storage = ir::Storage::Shared;
  /// Shared: absolute byte address. Scratchpad: byte offset within the
  /// owning tile's SPM. Local: register-allocated, address 0.
  std::int64_t address = 0;
  std::int64_t bytes = 0;
  /// Owning tile for Scratchpad entries; -1 otherwise.
  int tile = -1;
};

/// The explicit parallel program.
struct ParallelProgram {
  const htg::TaskGraph* graph = nullptr;
  /// The schedule; tileOrder[T] is the order tile T runs its tasks in.
  sched::Schedule schedule;
  std::vector<Event> events;
  /// Per task (indexed like TaskGraph::tasks): the events it waits for
  /// before it runs and the events it signals after it finishes, ids
  /// ascending.
  std::vector<std::vector<int>> waits;
  std::vector<std::vector<int>> signals;
  std::map<std::string, AddressEntry> addresses;
  /// Cycles charged for one signal or wait (one shared-memory flag access
  /// each).
  Cycles syncOverhead = 0;

  [[nodiscard]] const Event& event(int id) const { return events.at(id); }
};

/// Builds the explicit parallel program for a validated schedule.
/// Throws support::ToolchainError if the schedule is structurally invalid
/// or the address map overflows the platform's memories.
[[nodiscard]] ParallelProgram buildParallelProgram(
    const htg::TaskGraph& graph, const sched::Schedule& schedule,
    const adl::Platform& platform);

}  // namespace argo::par
