#include "walk.h"

#include <optional>
#include <utility>

#include "htg/htg.h"
#include "ir/printer.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "syswcet/system_wcet.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"
#include "transform/pass.h"
#include "transform/spm_alloc.h"
#include "wcet/analyzer.h"
#include "wcet/timing_model.h"

namespace perfbench {

using namespace argo;

namespace {

/// Span category of every benchmark-owned span.
constexpr const char* kWalkCategory = "walk";

/// One rung of the feedback ladder: a granularity plus an optional core
/// restriction (0 = all cores). Same ladder as core::Toolchain::run:
/// the sequential-mapping fallback first, then every granularity.
struct Candidate {
  int chunks;
  int coreLimit;
};

std::vector<Candidate> feedbackLadder(const adl::Platform& platform,
                                      const core::ToolchainOptions& options) {
  std::vector<int> chunks = options.chunkCandidates;
  if (chunks.empty()) {
    for (int c = 1; c <= 2 * platform.coreCount(); c *= 2) chunks.push_back(c);
  }
  std::vector<Candidate> ladder{{1, 1}};
  for (int c : chunks) ladder.push_back(Candidate{c, 0});
  return ladder;
}

}  // namespace

LayerSpan::LayerSpan(const std::string& layer, const std::string& point)
    : span(kWalkCategory, layer) {
  span.arg("point", point);
}

core::ToolchainOptions unitOptions(const core::ToolchainOptions& base,
                                   const std::string& policy) {
  core::ToolchainOptions options = base;
  options.sched.policy = policy;
  options.sched.interferenceAware = policy != "contention_oblivious";
  options.sched.parallelThreads = 1;
  options.explorationThreads = 1;
  return options;
}

WalkedPoint walkPoint(const std::string& pointId,
                      const model::CompiledModel& model,
                      const adl::Platform& platform,
                      const core::ToolchainOptions& base,
                      const std::vector<std::string>& policies) {
  WalkedPoint point;
  {
    LayerSpan span("transform.passes", pointId);
    point.fn = model.fn->clone();
    transform::PassManager passes;
    if (base.runTransforms) {
      passes.add(std::make_unique<transform::ConstantFolding>());
      passes.add(std::make_unique<transform::IndexSetSplitting>());
      passes.add(std::make_unique<transform::LoopFusion>());
    }
    if (base.spmAllocation) {
      const adl::CoreModel& core = platform.tile(0).core;
      passes.add(std::make_unique<transform::ScratchpadAllocation>(
          core.spmBytes, platform.sharedAccessBase(0), core.spmAccessCycles));
    }
    (void)passes.run(*point.fn);
  }
  point.irText = ir::toString(*point.fn);
  {
    LayerSpan span("wcet.seq", pointId);
    const wcet::TimingModel tile0 = wcet::TimingModel::forTile(platform, 0);
    point.sequentialWcet =
        wcet::SchemaAnalyzer(*point.fn, tile0).analyzeFunction().cycles;
  }
  std::optional<htg::Htg> source;
  {
    LayerSpan span("htg.build", pointId);
    source.emplace(htg::buildHtg(*point.fn));
  }

  const std::vector<Candidate> ladder = feedbackLadder(platform, base);
  std::map<int, std::vector<sched::TaskTiming>> timings;
  for (const Candidate& rung : ladder) {
    if (point.graphs.count(rung.chunks) != 0) continue;
    htg::ExpandOptions expandOptions;
    expandOptions.chunksPerLoop = rung.chunks;
    expandOptions.mergeScalarChains = base.mergeScalarChains;
    const htg::TaskGraph* graph = nullptr;
    {
      LayerSpan span("htg.expand", pointId);
      graph = &point.graphs.emplace(rung.chunks, htg::expand(*source, expandOptions))
                   .first->second;
    }
    LayerSpan span("wcet.task_timings", pointId);
    timings.emplace(rung.chunks, sched::computeTaskTimings(*graph, platform, 1));
  }

  for (const std::string& policy : policies) {
    const core::ToolchainOptions options = unitOptions(base, policy);
    bool haveBest = false;
    Candidate best{};
    sched::Schedule bestSchedule;
    adl::Cycles bestBound = 0;
    for (const Candidate& rung : ladder) {
      sched::SchedOptions schedOptions = options.sched;
      if (rung.coreLimit > 0) schedOptions.coreLimit = rung.coreLimit;
      const htg::TaskGraph& graph = point.graphs.at(rung.chunks);
      const std::vector<sched::TaskTiming>& table = timings.at(rung.chunks);
      sched::Schedule schedule;
      {
        LayerSpan span("sched." + policy, pointId);
        const sched::Scheduler scheduler(graph, platform, table);
        schedule = scheduler.run(schedOptions);
        span.span.arg("label", schedule.policy);
      }
      par::ParallelProgram program;
      {
        LayerSpan span("par.build", pointId);
        program = par::buildParallelProgram(graph, schedule, platform);
      }
      adl::Cycles bound = 0;
      {
        LayerSpan span("syswcet.analyze", pointId);
        bound = syswcet::analyzeSystem(program, platform, table,
                                       options.interference, 1)
                    .makespan;
      }
      // Ladder order with a strict `<`: the first minimum wins, as in
      // Toolchain::run's reduction.
      if (!haveBest || bound < bestBound) {
        haveBest = true;
        best = rung;
        bestSchedule = std::move(schedule);
        bestBound = bound;
      }
    }
    WalkedUnit unit;
    unit.policy = policy;
    unit.scheduleLabel = bestSchedule.policy;
    unit.bound = bestBound;
    unit.chosenChunks = best.chunks;
    {
      LayerSpan span("par.build", pointId);
      unit.program = par::buildParallelProgram(point.graphs.at(best.chunks),
                                               bestSchedule, platform);
    }
    point.units.push_back(std::move(unit));
  }
  return point;
}

}  // namespace perfbench
