#include "sim/simulator.h"

#include <algorithm>
#include <limits>

#include "support/diagnostics.h"

namespace argo::sim {

using support::ToolchainError;

Cycles nonSharedCost(const ir::CountingMeter& meter,
                     const adl::CoreModel& core) {
  Cycles total = 0;
  for (int c = 0; c < ir::kOpClassCount; ++c) {
    const auto op = static_cast<ir::OpClass>(c);
    total += meter.ops()[op] * core.cyclesFor(op);
  }
  total += (meter.reads(ir::Storage::Local) + meter.writes(ir::Storage::Local)) *
           core.localAccessCycles;
  total += (meter.reads(ir::Storage::Scratchpad) +
            meter.writes(ir::Storage::Scratchpad)) *
           core.spmAccessCycles;
  return total;
}

namespace {

/// Interconnect arbitration state shared by all cores during one step.
class Arbiter {
 public:
  explicit Arbiter(const adl::Platform& platform) : platform_(platform) {}

  /// Simulates one shared-memory access issued by `tile` at time `ready`.
  /// Returns the completion time (updates internal state).
  Cycles access(int tile, Cycles ready) {
    if (platform_.isBus()) {
      const adl::BusModel& bus = platform_.bus();
      if (bus.arbitration == adl::Arbitration::Tdma) {
        // The core may only start in its own slot; the access must fit the
        // slot, so it starts at the next slot boundary it owns.
        const Cycles wheel =
            static_cast<Cycles>(platform_.coreCount()) * bus.slotCycles;
        const Cycles slotStart = static_cast<Cycles>(tile) * bus.slotCycles;
        Cycles cycleBase = (ready / wheel) * wheel + slotStart;
        if (cycleBase < ready) cycleBase += wheel;
        return cycleBase + bus.baseAccessCycles;
      }
      // Round-robin approximated as FCFS; every core has at most one
      // outstanding access, so waiting stays within the analytical bound.
      const Cycles grant = std::max(ready, busFree_);
      busFree_ = grant + bus.baseAccessCycles;
      return busFree_;
    }
    const adl::NocModel& noc = platform_.noc();
    const Cycles hop =
        static_cast<Cycles>(noc.hopDistance(tile, noc.memTile)) *
        (noc.routerCycles + noc.linkCycles);
    const Cycles arrival = ready + hop;
    const Cycles grant = std::max(arrival, memFree_);
    memFree_ = grant + noc.memAccessCycles;
    return memFree_ + hop;  // response routes back
  }

 private:
  const adl::Platform& platform_;
  Cycles busFree_ = 0;
  Cycles memFree_ = 0;
};

/// Per-core execution cursor: the tile walks its task order one action
/// at a time. `phase` runs through the slot's waits, then the task, then
/// its signals.
struct CoreCursor {
  int tile = 0;
  const std::vector<int>* order = nullptr;  // the tile's task order
  std::size_t slot = 0;
  std::size_t phase = 0;  // < waits: a wait; == waits: the task; > : a signal
  Cycles time = 0;

  // State of the task in progress (split into access rounds).
  bool inTask = false;
  Cycles segment = 0;        // compute cycles between accesses
  Cycles finalSegment = 0;   // remainder after the last access
  std::int64_t accessesLeft = 0;

  [[nodiscard]] bool done() const { return slot >= order->size(); }
  [[nodiscard]] std::size_t task() const {
    return static_cast<std::size_t>((*order)[slot]);
  }
};

}  // namespace

Simulator::Simulator(const par::ParallelProgram& program,
                     const adl::Platform& platform)
    : program_(program), platform_(platform) {}

StepResult Simulator::step(ir::Environment& env) const {
  const std::size_t taskCount = program_.graph->tasks.size();
  StepResult result;
  result.tasks.assign(taskCount, TaskTrace{});

  Arbiter arbiter(platform_);
  std::vector<CoreCursor> cores(program_.schedule.tileOrder.size());
  for (std::size_t c = 0; c < cores.size(); ++c) {
    cores[c].tile = static_cast<int>(c);
    cores[c].order = &program_.schedule.tileOrder[c];
  }
  // Event availability time; min() when not yet signalled.
  std::vector<Cycles> eventAvail(program_.events.size(),
                                 std::numeric_limits<Cycles>::min());

  const ir::Evaluator evaluator(*program_.graph->fn);

  // Effective time at which a core can perform its next action, or nullopt
  // when blocked on an unsignalled event.
  auto effectiveTime = [&](const CoreCursor& core) -> std::optional<Cycles> {
    const std::vector<int>& waits = program_.waits[core.task()];
    if (core.phase >= waits.size()) return core.time;
    const Cycles avail =
        eventAvail[static_cast<std::size_t>(waits[core.phase])];
    if (avail == std::numeric_limits<Cycles>::min()) return std::nullopt;
    return std::max(core.time, avail);
  };

  auto advance = [&](CoreCursor& core) {
    const std::size_t task = core.task();
    const std::vector<int>& waits = program_.waits[task];
    const std::vector<int>& signals = program_.signals[task];
    TaskTrace& trace = result.tasks[task];
    if (core.inTask) {
      // One access round: compute segment, then an arbitrated access.
      core.time += core.segment;
      const Cycles before = core.time;
      core.time = arbiter.access(core.tile, core.time);
      trace.stall += std::max<Cycles>(
          0, (core.time - before) - platform_.sharedAccessBase(core.tile));
      trace.sharedAccesses += 1;
      result.totalSharedAccesses += 1;
      if (--core.accessesLeft > 0) return;
      core.time += core.finalSegment;
      trace.finish = core.time;
      core.inTask = false;
    } else if (core.phase < waits.size()) {
      const Cycles avail =
          eventAvail[static_cast<std::size_t>(waits[core.phase])];
      core.time = std::max(core.time, avail);
      // Successful poll: one arbitrated flag access.
      core.time = arbiter.access(core.tile, core.time);
    } else if (core.phase > waits.size()) {
      // Flag write, then the payload becomes visible after the actual
      // (uncontended) transfer latency.
      const int id = signals[core.phase - waits.size() - 1];
      core.time = arbiter.access(core.tile, core.time);
      const par::Event& event = program_.event(id);
      const Cycles transfer = platform_.transferWorstCase(
          event.bytes, event.producerTile, event.consumerTile,
          /*contenders=*/1);
      eventAvail[static_cast<std::size_t>(id)] = core.time + transfer;
    } else {
      ir::CountingMeter meter;
      for (const ir::StmtPtr& s : program_.graph->tasks[task].stmts) {
        evaluator.runStmt(*s, env, &meter);
      }
      const Cycles compute =
          nonSharedCost(meter, platform_.tile(core.tile).core);
      const std::int64_t accesses = meter.reads(ir::Storage::Shared) +
                                    meter.writes(ir::Storage::Shared);
      trace.start = core.time;
      if (accesses > 0) {
        core.segment = compute / (accesses + 1);
        core.finalSegment =
            compute - core.segment * accesses;  // includes remainder
        core.accessesLeft = accesses;
        core.inTask = true;
        return;
      }
      core.time += compute;
      trace.finish = core.time;
    }
    // The action is finished; the slot's last signal ends the slot.
    if (++core.phase > waits.size() + signals.size()) {
      ++core.slot;
      core.phase = 0;
    }
  };

  while (true) {
    int next = -1;
    Cycles best = std::numeric_limits<Cycles>::max();
    bool anyPending = false;
    for (std::size_t c = 0; c < cores.size(); ++c) {
      if (cores[c].done()) continue;
      anyPending = true;
      const auto t = effectiveTime(cores[c]);
      if (t.has_value() && *t < best) {
        best = *t;
        next = static_cast<int>(c);
      }
    }
    if (!anyPending) break;
    if (next < 0) {
      throw ToolchainError("simulator deadlock: all cores blocked on events");
    }
    advance(cores[static_cast<std::size_t>(next)]);
  }

  for (const CoreCursor& core : cores) {
    result.makespan = std::max(result.makespan, core.time);
  }
  for (const TaskTrace& t : result.tasks) result.totalStall += t.stall;
  return result;
}

}  // namespace argo::sim
