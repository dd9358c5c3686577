// Infrastructure bench: sequential vs. pooled per-task timing analysis
// (sched::computeTaskTimings) and MHP-based system analysis
// (syswcet::analyzeSystem). Prints per-app wall-clock for both paths, the
// speedup, and verifies the pooled tables and bounds are bit-identical.
#include <chrono>
#include <thread>

#include "common.h"
#include "htg/htg.h"
#include "par/parallel_program.h"
#include "sched/scheduler.h"
#include "syswcet/system_wcet.h"

namespace {

using argo::bench::AppCase;
using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;

double msSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  argo::bench::rejectArguments(argc, argv);
  argo::bench::ParallelBenchReport report("tasks");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const argo::adl::Platform platform = argo::adl::makeRecoreXentiumBus(8);
  // A fine granularity so there are many independent tasks to distribute.
  const int chunks = 16;

  argo::bench::printHeader(
      "bench_parallel_wcet: pooled per-task timing + system analysis",
      "per-task WCET tables and MHP rows computed concurrently, "
      "bit-identical results");
  std::printf("hardware threads: %u (speedup needs >= 4)\n", hw);

  for (AppCase& app : argo::bench::allApps()) {
    const argo::model::CompiledModel model = app.diagram.compile();
    const argo::htg::TaskGraph graph = argo::htg::expand(
        argo::htg::buildHtg(*model.fn), argo::htg::ExpandOptions{chunks});

    // --- Per-task code-level timing analysis. ---
    std::vector<argo::sched::TaskTiming> seqTimings;
    auto begin = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      seqTimings = argo::sched::computeTaskTimings(graph, platform, 1);
    }
    const double seqTimingMs = msSince(begin);

    std::vector<argo::sched::TaskTiming> pooledTimings;
    begin = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      pooledTimings = argo::sched::computeTaskTimings(graph, platform, 0);
    }
    const double pooledTimingMs = msSince(begin);

    report.addRow({app.name, "timings", graph.tasks.size(), seqTimingMs,
                   pooledTimingMs, seqTimings == pooledTimings});

    // --- System-level analysis on the scheduled program. ---
    const argo::sched::Scheduler scheduler(graph, platform);
    const argo::sched::Schedule schedule =
        scheduler.run(argo::sched::SchedOptions{});
    const argo::par::ParallelProgram program =
        argo::par::buildParallelProgram(graph, schedule, platform);

    argo::syswcet::SystemWcet seqSystem;
    begin = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      seqSystem = argo::syswcet::analyzeSystem(
          program, platform, scheduler.timings(),
          argo::syswcet::InterferenceMethod::MhpRefined, 1);
    }
    const double seqSystemMs = msSince(begin);

    argo::syswcet::SystemWcet pooledSystem;
    begin = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      pooledSystem = argo::syswcet::analyzeSystem(
          program, platform, scheduler.timings(),
          argo::syswcet::InterferenceMethod::MhpRefined, 0);
    }
    const double pooledSystemMs = msSince(begin);

    report.addRow({app.name, "system", graph.tasks.size(), seqSystemMs,
                   pooledSystemMs, seqSystem == pooledSystem});
  }
  return report.finish();
}
