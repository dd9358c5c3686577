#include "par/parallel_program.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace argo::par {

using support::ToolchainError;

namespace {

/// Aligns `value` upward to `alignment` (a power of two).
std::int64_t alignUp(std::int64_t value, std::int64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

std::map<std::string, AddressEntry> buildAddressMap(
    const htg::TaskGraph& graph, const sched::Schedule& schedule,
    const adl::Platform& platform) {
  const ir::Function& fn = *graph.fn;

  // Scratchpad owner: the tile executing the (unique) task set that touches
  // the variable. The SPM allocation pass guarantees single-tile usage for
  // written variables; read-only variables are replicated per tile, so any
  // tile works as the nominal owner.
  std::map<std::string, int> spmOwner;
  for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
    const int tile = schedule.placements[t].tile;
    for (const std::string& v : graph.tasks[t].usage.reads) {
      spmOwner.emplace(v, tile);
    }
    for (const std::string& v : graph.tasks[t].usage.writes) {
      spmOwner.emplace(v, tile);
    }
  }

  std::map<std::string, AddressEntry> map;
  std::int64_t sharedCursor = 0x1000;  // leave room for sync flags
  std::vector<std::int64_t> spmCursor(
      static_cast<std::size_t>(platform.coreCount()), 0);

  for (const ir::VarDecl& decl : fn.decls()) {
    AddressEntry entry;
    entry.name = decl.name;
    entry.storage = decl.storage;
    entry.bytes = decl.type.byteSize();
    switch (decl.storage) {
      case ir::Storage::Shared: {
        sharedCursor = alignUp(sharedCursor, 8);
        entry.address = sharedCursor;
        sharedCursor += entry.bytes;
        break;
      }
      case ir::Storage::Scratchpad: {
        auto it = spmOwner.find(decl.name);
        const int tile = it == spmOwner.end() ? 0 : it->second;
        auto& cursor = spmCursor[static_cast<std::size_t>(tile)];
        cursor = alignUp(cursor, 8);
        entry.address = cursor;
        entry.tile = tile;
        cursor += entry.bytes;
        if (cursor > platform.tile(tile).core.spmBytes) {
          throw ToolchainError("scratchpad overflow on tile " +
                               std::to_string(tile) + " placing '" +
                               decl.name + "'");
        }
        break;
      }
      case ir::Storage::Local:
        entry.address = 0;
        break;
    }
    map.emplace(decl.name, std::move(entry));
  }
  if (sharedCursor > platform.sharedMemBytes()) {
    throw ToolchainError("shared memory overflow (" +
                         std::to_string(sharedCursor) + " bytes needed)");
  }
  return map;
}

}  // namespace

ParallelProgram buildParallelProgram(const htg::TaskGraph& graph,
                                     const sched::Schedule& schedule,
                                     const adl::Platform& platform) {
  if (schedule.placements.size() != graph.tasks.size()) {
    throw ToolchainError("schedule does not cover the task graph");
  }

  ParallelProgram program;
  program.graph = &graph;
  program.schedule = schedule;
  // A signal/wait is one flag write/read in shared memory.
  program.syncOverhead = platform.sharedAccessBase(0);

  // Events: one per cross-tile dependence edge.
  std::map<std::uint64_t, int> eventOf;  // (from<<32|to) -> event id
  for (const htg::Dep& dep : graph.deps) {
    const int fromTile =
        schedule.placements[static_cast<std::size_t>(dep.from)].tile;
    const int toTile =
        schedule.placements[static_cast<std::size_t>(dep.to)].tile;
    if (fromTile == toTile) continue;  // program order on the same core
    Event event;
    event.id = static_cast<int>(program.events.size());
    event.producerTask = dep.from;
    event.consumerTask = dep.to;
    event.producerTile = fromTile;
    event.consumerTile = toTile;
    event.bytes = dep.bytes;
    event.vars = dep.vars;
    eventOf.emplace((static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(dep.from))
                     << 32) |
                        static_cast<std::uint32_t>(dep.to),
                    event.id);
    program.events.push_back(std::move(event));
  }

  // Core programs: tile order from the schedule; a task's waits precede
  // its Execute, its signals follow it (ordered by event id for
  // determinism).
  program.cores.resize(static_cast<std::size_t>(platform.coreCount()));
  for (int tile = 0; tile < platform.coreCount(); ++tile) {
    CoreProgram& core = program.cores[static_cast<std::size_t>(tile)];
    core.tile = tile;
    if (static_cast<std::size_t>(tile) >= schedule.tileOrder.size()) continue;
    for (int task : schedule.tileOrder[static_cast<std::size_t>(tile)]) {
      std::vector<int> waits;
      std::vector<int> signals;
      for (const Event& e : program.events) {
        if (e.consumerTask == task) waits.push_back(e.id);
        if (e.producerTask == task) signals.push_back(e.id);
      }
      std::sort(waits.begin(), waits.end());
      std::sort(signals.begin(), signals.end());
      for (int e : waits) {
        core.ops.push_back(ParOp{OpKind::Wait, -1, e});
      }
      core.ops.push_back(ParOp{OpKind::Execute, task, -1});
      for (int e : signals) {
        core.ops.push_back(ParOp{OpKind::Signal, -1, e});
      }
    }
  }

  program.addresses = buildAddressMap(graph, schedule, platform);
  return program;
}

}  // namespace argo::par
