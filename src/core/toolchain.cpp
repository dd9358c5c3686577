#include "core/toolchain.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "core/cache.h"
#include "ir/printer.h"
#include "support/strings.h"
#include "support/trace.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"
#include "transform/spm_alloc.h"

namespace argo::core {

namespace {

class StageClock {
 public:
  explicit StageClock(std::vector<StageTiming>& sink) : sink_(sink) {}

  template <typename Fn>
  void time(const std::string& stage, Fn&& fn) {
    // Same boundary, two sinks: wall-ms into the --timings stage table,
    // and one "toolchain" span per stage into the trace recorder.
    support::TraceSpan span("toolchain", stage);
    const auto begin = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    sink_.push_back(StageTiming{
        stage,
        std::chrono::duration<double, std::milli>(end - begin).count()});
  }

 private:
  std::vector<StageTiming>& sink_;
};

/// The predictability transform pipeline (Fig. 1 left), applied in place.
std::vector<std::string> runTransformPasses(ir::Function& fn,
                                            const adl::Platform& platform,
                                            const ToolchainOptions& options) {
  transform::PassManager pm;
  if (options.runTransforms) {
    pm.add(std::make_unique<transform::ConstantFolding>());
    pm.add(std::make_unique<transform::IndexSetSplitting>());
    pm.add(std::make_unique<transform::LoopFusion>());
  }
  if (options.spmAllocation) {
    const adl::CoreModel& core = platform.tile(0).core;
    pm.add(std::make_unique<transform::ScratchpadAllocation>(
        core.spmBytes, platform.sharedAccessBase(0), core.spmAccessCycles));
  }
  return pm.run(fn);
}

/// The transforms stage as a cacheable value: transformed clone of the
/// model function plus the key of its canonical IR text.
TransformsStage makeTransformsStage(const model::CompiledModel& model,
                                    const adl::Platform& platform,
                                    const ToolchainOptions& options) {
  TransformsStage stage;
  std::unique_ptr<ir::Function> fn = model.fn->clone();
  stage.passesRun = runTransformPasses(*fn, platform, options);
  stage.irKey = support::Hasher().str(ir::toString(*fn)).finish();
  stage.fn = std::move(fn);
  return stage;
}

/// One feedback candidate: a granularity plus an optional core
/// restriction.
struct Candidate {
  int chunks;
  int coreLimit;  // 0 = unrestricted
};

/// The candidate ladder of the feedback loop: sequential-mapping fallback
/// first (parallelization must *beat* one core to be selected), then every
/// requested granularity.
std::vector<Candidate> buildPlans(const adl::Platform& platform,
                                  const ToolchainOptions& options) {
  std::vector<int> candidates = options.chunkCandidates;
  if (candidates.empty()) {
    for (int c = 1; c <= 2 * platform.coreCount(); c *= 2) {
      candidates.push_back(c);
    }
  }
  std::vector<Candidate> plans;
  plans.push_back(Candidate{1, 1});
  for (int chunks : candidates) plans.push_back(Candidate{chunks, 0});
  return plans;
}

/// One candidate's HTG expansion and the key its downstream stages chain.
struct Expansion {
  support::StageKey key;
  std::shared_ptr<const ExpandStage> stage;
};

/// The policy-independent stage prefix — transforms, sequential WCET, one
/// HTG expansion per candidate and its per-task timings — looked up in, or
/// computed into, one ToolchainCache. run() and warmSharedStages() both
/// walk it, so every prefix stage has exactly one definition.
class StagePrefix {
 public:
  StagePrefix(ToolchainCache& cache, const adl::Platform& platform,
              const ToolchainOptions& options)
      : cache_(cache), platform_(platform), options_(options) {}

  [[nodiscard]] std::shared_ptr<const TransformsStage> transforms(
      const model::CompiledModel& model) const {
    return cache_.getTransforms(
        transformsKey(ir::toString(*model.fn), platform_,
                      options_.runTransforms, options_.spmAllocation),
        [&] { return makeTransformsStage(model, platform_, options_); });
  }

  [[nodiscard]] Cycles sequentialWcet(
      const TransformsStage& transformed) const {
    return *cache_.getSequentialWcet(
        sequentialWcetKey(transformed.irKey, platform_), [&] {
          const wcet::TimingModel model0 =
              wcet::TimingModel::forTile(platform_, 0);
          return wcet::SchemaAnalyzer(*transformed.fn, model0)
              .analyzeFunction()
              .cycles;
        });
  }

  /// Every candidate's expansion, in ladder order. The HTG is extracted
  /// at most once, on the first expansion the cache cannot serve.
  [[nodiscard]] std::vector<Expansion> expansions(
      const std::shared_ptr<const TransformsStage>& transformed,
      const std::vector<Candidate>& plans) const {
    std::optional<htg::Htg> source;
    std::vector<Expansion> out;
    out.reserve(plans.size());
    for (const Candidate& plan : plans) {
      const support::StageKey key = expansionKey(
          transformed->irKey, plan.chunks, options_.mergeScalarChains);
      out.push_back(Expansion{key, cache_.getExpansion(key, [&] {
        if (!source.has_value()) {
          source.emplace(htg::buildHtg(*transformed->fn));
        }
        htg::ExpandOptions expandOptions;
        expandOptions.chunksPerLoop = plan.chunks;
        expandOptions.mergeScalarChains = options_.mergeScalarChains;
        ExpandStage stage;
        stage.source = transformed;
        stage.graph = std::make_unique<const htg::TaskGraph>(
            htg::expand(*source, expandOptions));
        return stage;
      })});
    }
    return out;
  }

  [[nodiscard]] std::shared_ptr<const std::vector<sched::TaskTiming>> timings(
      const support::StageKey& key, const htg::TaskGraph& graph) const {
    return cache_.getTimings(
        key, [&] { return sched::computeTaskTimings(graph, platform_); });
  }

 private:
  ToolchainCache& cache_;
  const adl::Platform& platform_;
  const ToolchainOptions& options_;
};

}  // namespace

ToolchainResult Toolchain::run(const model::Diagram& diagram) const {
  return run(diagram.compile());
}

codegen::Emission Toolchain::emitC(const ToolchainResult& result,
                                   const codegen::InputTrace& trace,
                                   const codegen::EmitOptions& options) const {
  return codegen::emitProgram(result.program, platform_, result.constants,
                              trace, options);
}

void Toolchain::warmSharedStages(const model::CompiledModel& model) const {
  if (options_.cache == nullptr) return;
  const StagePrefix prefix(*options_.cache, platform_, options_);
  const std::shared_ptr<const TransformsStage> transformed =
      prefix.transforms(model);
  (void)prefix.sequentialWcet(*transformed);
  for (const Expansion& expansion :
       prefix.expansions(transformed, buildPlans(platform_, options_))) {
    (void)prefix.timings(timingsKey(expansion.key, platform_),
                         *expansion.stage->graph);
  }
}

ToolchainResult Toolchain::run(const model::CompiledModel& model) const {
  ToolchainResult result;
  StageClock clock(result.stages);
  // Every stage goes through a ToolchainCache: the attached one, or one
  // private to this run. The result aliases the winning candidate's stage
  // values, so it outlives either kind of cache.
  std::optional<ToolchainCache> privateCache;
  ToolchainCache& cache = options_.cache != nullptr ? *options_.cache
                                                    : privateCache.emplace();
  const StagePrefix prefix(cache, platform_, options_);

  // ---- IR + predictability-enhancing transformations (Fig. 1 left). ----
  std::shared_ptr<const TransformsStage> transformed;
  clock.time("transforms", [&] { transformed = prefix.transforms(model); });
  result.passesRun = transformed->passesRun;
  result.constants = model.constants;

  // ---- Sequential reference bound (single core, no interference). ----
  clock.time("code_level_wcet", [&] {
    result.sequentialWcet = prefix.sequentialWcet(*transformed);
  });

  // ---- Task extraction: one HTG, expanded at every candidate
  // granularity. ----
  const std::vector<Candidate> plans = buildPlans(platform_, options_);
  std::vector<Expansion> expansions;
  clock.time("task_extraction", [&] {
    expansions = prefix.expansions(transformed, plans);
  });

  // ---- Cross-layer feedback: schedule each candidate, measure its
  // system-level WCET, keep the best (Section II-E). Candidates are
  // evaluated in ladder order and the first minimum wins (strict `<`);
  // every cached stage is a pure function of its keyed inputs, so the
  // chosen candidate, the FeedbackPoint sequence and the report do not
  // depend on the cache. ----
  std::size_t best = 0;
  std::shared_ptr<const std::vector<sched::TaskTiming>> bestTimings;
  std::shared_ptr<const ScheduleStage> bestOutcome;
  clock.time("schedule_and_system_wcet", [&] {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const htg::TaskGraph& graph = *expansions[i].stage->graph;
      // Candidates an exact policy cannot represent are not rejected here:
      // the branch-and-bound policy itself falls back to HEFT beyond its
      // task cap (sched/bnb.h), so every candidate stays comparable.
      sched::SchedOptions schedOptions = options_.sched;
      if (plans[i].coreLimit > 0) schedOptions.coreLimit = plans[i].coreLimit;
      const support::StageKey timKey =
          timingsKey(expansions[i].key, platform_);
      std::shared_ptr<const std::vector<sched::TaskTiming>> timings =
          prefix.timings(timKey, graph);
      std::shared_ptr<const ScheduleStage> outcome = cache.getSchedules(
          scheduleKey(timKey, platform_, schedOptions, options_.interference),
          [&] {
            const sched::Scheduler scheduler(graph, platform_, *timings);
            ScheduleStage stage;
            stage.schedule = scheduler.run(schedOptions);
            const par::ParallelProgram program =
                par::buildParallelProgram(graph, stage.schedule, platform_);
            stage.system = syswcet::analyzeSystem(
                program, platform_, scheduler.timings(), options_.interference);
            return stage;
          });
      const Cycles makespan = outcome->system.makespan;
      result.feedback.push_back(
          FeedbackPoint{plans[i].chunks, plans[i].coreLimit, makespan,
                        static_cast<int>(graph.tasks.size())});
      if (bestOutcome == nullptr || makespan < bestOutcome->system.makespan) {
        best = i;
        bestTimings = std::move(timings);
        bestOutcome = std::move(outcome);
      }
    }
  });
  result.chosenChunks = plans[best].chunks;
  result.timings = *bestTimings;
  result.schedule = bestOutcome->schedule;
  result.system = bestOutcome->system;

  // ---- The result shares the winner's graph and the function it points
  // at (the expansion's own source, so graph->fn == fn always holds). ----
  const std::shared_ptr<const ExpandStage>& winner = expansions[best].stage;
  result.graph =
      std::shared_ptr<const htg::TaskGraph>(winner, winner->graph.get());
  result.fn = std::shared_ptr<const ir::Function>(winner->source,
                                                  winner->source->fn.get());

  // ---- Final explicit parallel program against the kept graph. ----
  clock.time("parallel_model", [&] {
    result.program =
        par::buildParallelProgram(*result.graph, result.schedule, platform_);
  });

  return result;
}

double guaranteedSpeedup(Cycles sequential, Cycles bound) {
  if (bound == 0) {
    return sequential == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(sequential) / static_cast<double>(bound);
}

std::string ToolchainResult::reportText(bool includeStageTimings) const {
  std::ostringstream os;
  os << "=== ARGO tool-chain report ===\n";
  os << "function:            " << fn->name() << "\n";
  os << "passes run:          "
     << (passesRun.empty() ? "(none)" : support::join(passesRun, ", "))
     << "\n";
  os << "tasks:               " << graph->tasks.size() << " (chunks/loop "
     << chosenChunks << ")\n";
  os << "schedule policy:     " << schedule.policy << " on "
     << schedule.tilesUsed << " tiles\n";
  os << "sequential WCET:     " << support::formatCycles(sequentialWcet)
     << " cycles\n";
  os << "parallel WCET bound: " << support::formatCycles(system.makespan)
     << " cycles\n";
  os << "guaranteed speedup:  ";
  if (std::isinf(wcetSpeedup())) {
    os << "unbounded\n";
  } else {
    os << wcetSpeedup() << "x\n";
  }
  os << "feedback points:\n";
  // The reduction keeps the first point at the minimum bound, so only
  // that one is marked, even when later points tie with it.
  bool marked = false;
  for (const FeedbackPoint& p : feedback) {
    const bool chosen = !marked && p.systemWcet == system.makespan;
    marked = marked || chosen;
    os << "  chunks=" << p.chunksPerLoop
       << (p.coreLimit == 1 ? " (sequential mapping)" : "")
       << " tasks=" << p.tasks
       << " systemWCET=" << support::formatCycles(p.systemWcet)
       << (chosen ? "  <== chosen" : "") << "\n";
  }
  if (includeStageTimings) {
    os << "stage timings:\n";
    for (const StageTiming& s : stages) {
      os << "  " << s.stage << ": " << s.milliseconds << " ms\n";
    }
  }
  return os.str();
}

}  // namespace argo::core
