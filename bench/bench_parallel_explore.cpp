// Infrastructure bench: sequential vs. pooled cross-layer feedback
// exploration (the schedule_and_system_wcet stage of core::Toolchain).
// Prints per-app wall-clock for both paths, the speedup, and verifies the
// chosen candidate and deterministic report are bit-identical.
#include <algorithm>
#include <thread>

#include "common.h"

namespace {

using argo::bench::AppCase;

double explorationMs(const argo::core::ToolchainResult& result) {
  for (const argo::core::StageTiming& s : result.stages) {
    if (s.stage == "schedule_and_system_wcet") return s.milliseconds;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  argo::bench::rejectArguments(argc, argv);
  argo::bench::ParallelBenchReport report("points");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const argo::adl::Platform platform = argo::adl::makeRecoreXentiumBus(8);
  // A wide ladder so there is enough independent work to distribute.
  const std::vector<int> ladder = {1, 2, 3, 4, 6, 8, 12, 16};

  argo::bench::printHeader(
      "bench_parallel_explore: pooled feedback exploration",
      "candidate ladder evaluated concurrently, bit-identical results");
  std::printf("hardware threads: %u (speedup needs >= 4)\n", hw);

  for (AppCase& app : argo::bench::allApps()) {
    const argo::model::CompiledModel model = app.diagram.compile();

    argo::core::ToolchainOptions seqOptions;
    seqOptions.chunkCandidates = ladder;
    seqOptions.explorationThreads = 1;
    const argo::core::ToolchainResult seq =
        argo::core::Toolchain(platform, seqOptions).run(model);

    argo::core::ToolchainOptions poolOptions = seqOptions;
    // One worker per hardware thread, but never fewer than 4 so the pool
    // path (not the sequential fast path) is exercised even on small hosts.
    poolOptions.explorationThreads = static_cast<int>(std::max(hw, 4u));
    const argo::core::ToolchainResult pooled =
        argo::core::Toolchain(platform, poolOptions).run(model);

    const bool identical =
        seq.chosenChunks == pooled.chosenChunks &&
        seq.reportText(false) == pooled.reportText(false);
    report.addRow({app.name, "", seq.feedback.size(), explorationMs(seq),
                   explorationMs(pooled), identical});
  }
  return report.finish();
}
