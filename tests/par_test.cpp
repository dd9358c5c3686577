// Unit tests for the explicit parallel program model.
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::par {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;

std::unique_ptr<ir::Function> makeChainFn() {
  auto fn = std::make_unique<ir::Function>("chain");
  fn->declare("u", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  fn->declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn->declare("y", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::mul(ir::ref("u", ir::exprVec(ir::var("i"))),
                                   ir::flt(2.0))));
  fn->body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("y", ir::exprVec(ir::var("j"))),
                           ir::add(ir::ref("a", ir::exprVec(ir::var("j"))),
                                   ir::flt(1.0))));
  fn->body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  return fn;
}

struct Built {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;
  sched::Schedule schedule;
  std::vector<sched::TaskTiming> timings;
  ParallelProgram program;

  explicit Built(int chunks = 2, int cores = 4)
      : fn(makeChainFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {
    sched::Scheduler scheduler(graph, platform);
    schedule = scheduler.run(sched::SchedOptions{});
    timings = scheduler.timings();
    program = buildParallelProgram(graph, schedule, platform);
  }
};

TEST(ParallelProgram, EveryTaskExecutedExactlyOnce) {
  Built built;
  const std::vector<std::vector<int>>& tileOrder =
      built.program.schedule.tileOrder;
  ASSERT_EQ(tileOrder.size(),
            static_cast<std::size_t>(built.platform.coreCount()));
  std::vector<int> executions(built.graph.tasks.size(), 0);
  for (std::size_t tile = 0; tile < tileOrder.size(); ++tile) {
    for (int task : tileOrder[tile]) {
      executions[static_cast<std::size_t>(task)] += 1;
      // And on the scheduled tile.
      EXPECT_EQ(static_cast<int>(tile),
                built.schedule.placements[static_cast<std::size_t>(task)]
                    .tile);
    }
  }
  for (int count : executions) EXPECT_EQ(count, 1);
}

TEST(ParallelProgram, EventsOnlyForCrossTileDeps) {
  Built built;
  for (const Event& e : built.program.events) {
    EXPECT_NE(e.producerTile, e.consumerTile);
    EXPECT_GT(e.bytes, 0);
  }
  // Each cross-tile dependence has exactly one event.
  std::size_t crossDeps = 0;
  for (const htg::Dep& d : built.graph.deps) {
    const int fromTile =
        built.schedule.placements[static_cast<std::size_t>(d.from)].tile;
    const int toTile =
        built.schedule.placements[static_cast<std::size_t>(d.to)].tile;
    if (fromTile != toTile) ++crossDeps;
  }
  EXPECT_EQ(built.program.events.size(), crossDeps);
}

TEST(ParallelProgram, WaitsPrecedeExecuteSignalsFollow) {
  // A task waits for exactly the events it consumes before it runs and
  // signals exactly the events it produces after it finishes, ids
  // ascending (events are listed by id, so the expected lists are).
  Built built;
  const std::size_t n = built.graph.tasks.size();
  ASSERT_EQ(built.program.waits.size(), n);
  ASSERT_EQ(built.program.signals.size(), n);
  std::vector<std::vector<int>> consumes(n);
  std::vector<std::vector<int>> produces(n);
  for (const Event& e : built.program.events) {
    consumes[static_cast<std::size_t>(e.consumerTask)].push_back(e.id);
    produces[static_cast<std::size_t>(e.producerTask)].push_back(e.id);
  }
  for (std::size_t task = 0; task < n; ++task) {
    EXPECT_EQ(built.program.waits[task], consumes[task]) << "task " << task;
    EXPECT_EQ(built.program.signals[task], produces[task]) << "task " << task;
  }
}

TEST(AddressMap, CoversAllVariables) {
  Built built;
  for (const ir::VarDecl& d : built.fn->decls()) {
    ASSERT_TRUE(built.program.addresses.contains(d.name)) << d.name;
    const AddressEntry& entry = built.program.addresses.at(d.name);
    EXPECT_EQ(entry.bytes, d.type.byteSize());
    EXPECT_EQ(entry.storage, d.storage);
  }
}

TEST(AddressMap, SharedEntriesAlignedAndDisjoint) {
  Built built;
  std::vector<const AddressEntry*> shared;
  for (const auto& [name, entry] : built.program.addresses) {
    if (entry.storage == ir::Storage::Shared) shared.push_back(&entry);
  }
  std::sort(shared.begin(), shared.end(),
            [](const AddressEntry* a, const AddressEntry* b) {
              return a->address < b->address;
            });
  for (std::size_t k = 0; k < shared.size(); ++k) {
    EXPECT_EQ(shared[k]->address % 8, 0);
    if (k > 0) {
      EXPECT_GE(shared[k]->address,
                shared[k - 1]->address + shared[k - 1]->bytes);
    }
  }
}

TEST(AddressMap, SharedOverflowRejected) {
  auto fn = makeChainFn();
  // A platform with absurdly small shared memory.
  std::vector<adl::Tile> tiles = {adl::Tile{0, adl::CoreModel::xentiumDsp()}};
  adl::BusModel bus;
  const adl::Platform tiny("tiny", std::move(tiles), bus, /*sharedMem=*/64);
  const htg::TaskGraph graph =
      htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{1});
  sched::Scheduler scheduler(graph, tiny);
  const sched::Schedule schedule = scheduler.run(sched::SchedOptions{});
  EXPECT_THROW((void)buildParallelProgram(graph, schedule, tiny),
               support::ToolchainError);
}

TEST(CodeGen, EmitsWaitSignalAndTaskCode) {
  // codegen's tile units carry the explicit program: one function per
  // task, and each slot's Wait/Signal events as its argo_w_/argo_s_ list.
  Built built;
  codegen::InputTrace trace;
  trace.steps.push_back(ir::makeZeroEnvironment(*built.fn));
  const codegen::Emission emission =
      codegen::emitProgram(built.program, built.platform, {}, trace);
  bool sawWait = false;
  bool sawSignal = false;
  bool sawLoop = false;
  std::size_t tasks = 0;
  for (const codegen::SourceFile& file : emission.files) {
    if (!support::startsWith(file.name, "tile")) continue;
    const std::string& source = file.contents;
    if (source.find("argo_w_") != std::string::npos) sawWait = true;
    if (source.find("argo_s_") != std::string::npos) sawSignal = true;
    if (source.find("for (") != std::string::npos) sawLoop = true;
    for (std::size_t at = source.find("void argo_task_");
         at != std::string::npos;
         at = source.find("void argo_task_", at + 1)) {
      ++tasks;
    }
  }
  EXPECT_EQ(sawWait, !built.program.events.empty());
  EXPECT_EQ(sawSignal, !built.program.events.empty());
  EXPECT_TRUE(sawLoop);
  EXPECT_EQ(tasks, built.graph.tasks.size());
}

TEST(ParallelProgram, SyncOverheadPositive) {
  Built built;
  EXPECT_GT(built.program.syncOverhead, 0);
}

TEST(ParallelProgram, MismatchedScheduleRejected) {
  Built built;
  sched::Schedule broken = built.schedule;
  broken.placements.pop_back();
  EXPECT_THROW(
      (void)buildParallelProgram(built.graph, broken, built.platform),
      support::ToolchainError);
  // Every tile needs a task order, even an empty one.
  broken = built.schedule;
  broken.tileOrder.pop_back();
  EXPECT_THROW(
      (void)buildParallelProgram(built.graph, broken, built.platform),
      support::ToolchainError);
}

}  // namespace
}  // namespace argo::par
