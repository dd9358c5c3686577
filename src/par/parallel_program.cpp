#include "par/parallel_program.h"

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
  if (schedule.tileOrder.size() !=
      static_cast<std::size_t>(platform.coreCount())) {
    throw ToolchainError("schedule does not give every tile a task order");
  }

  ParallelProgram program;
  program.graph = &graph;
  program.schedule = schedule;
  // A signal/wait is one flag write/read in shared memory.
  program.syncOverhead = platform.sharedAccessBase(0);

  // Events: one per cross-tile dependence edge, ids in edge order, so each
  // task's wait and signal lists come out ascending.
  program.waits.resize(graph.tasks.size());
  program.signals.resize(graph.tasks.size());
  for (const htg::Dep& dep : graph.deps) {
    const int fromTile =
        schedule.placements[static_cast<std::size_t>(dep.from)].tile;
    const int toTile =
        schedule.placements[static_cast<std::size_t>(dep.to)].tile;
    if (fromTile == toTile) continue;  // program order on the same core
    const int id = static_cast<int>(program.events.size());
    program.events.push_back(
        Event{id, dep.from, dep.to, fromTile, toTile, dep.bytes});
    program.waits[static_cast<std::size_t>(dep.to)].push_back(id);
    program.signals[static_cast<std::size_t>(dep.from)].push_back(id);
  }

  program.addresses = buildAddressMap(graph, schedule, platform);
  return program;
}

}  // namespace argo::par
