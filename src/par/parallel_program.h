// Explicit parallel program model.
//
// Paper Section II-C: "The result of the scheduling/mapping stage is used
// to transform the initial program representation into an explicit parallel
// program model, in which the synchronizations are made explicit, and the
// final memory address mapping of the variables and the buffers is
// obtained."
//
// A ParallelProgram is a per-core list of operations:
//   Execute(task)  — run one task's IR statements
//   Signal(event)  — post a producer->consumer event (cross-core dep)
//   Wait(event)    — block until the event is posted
// plus the address map placing every Shared variable in shared memory and
// every Scratchpad variable at an SPM offset of its owning tile. This is
// the representation both the system-level WCET analysis (src/syswcet) and
// the timing simulator (src/sim) consume.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "adl/platform.h"
#include "htg/htg.h"
#include "sched/schedule.h"

namespace argo::par {

using adl::Cycles;

/// Kinds of per-core operations.
enum class OpKind : std::uint8_t { Execute, Signal, Wait };

/// One operation of a core program.
struct ParOp {
  OpKind kind = OpKind::Execute;
  /// Execute: task id into the TaskGraph.
  int task = -1;
  /// Signal/Wait: event id.
  int event = -1;
};

/// All operations of one core, in execution order.
struct CoreProgram {
  int tile = 0;
  std::vector<ParOp> ops;
};

/// A cross-core dependence made explicit.
struct Event {
  int id = 0;
  int producerTask = -1;
  int consumerTask = -1;
  int producerTile = -1;
  int consumerTile = -1;
  /// Bytes the consumer must see (drives the communication WCET).
  std::int64_t bytes = 0;
  std::set<std::string> vars;
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
  sched::Schedule schedule;
  std::vector<CoreProgram> cores;
  std::vector<Event> events;
  std::map<std::string, AddressEntry> addresses;
  /// Cycles charged for executing one Signal or Wait operation (they are
  /// implemented as one shared-memory flag access each).
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
