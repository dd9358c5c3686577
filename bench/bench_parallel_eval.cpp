// Infrastructure bench: sequential vs. pooled scenario batch evaluation
// (scenarios::runEval, the engine behind tools/argo_eval) on the
// TaskGraph executor (per-stage nodes, stages overlap across scenarios).
// The matrix8 row times sequential vs. pooled. The cross6 rows run the
// full scenario x platform cross product (--sweep-mode cross) and put the
// batch stage cache (core/cache.h) head to head against uncached
// evaluation (every unit on a fresh cache of its own): "cold" is a fresh
// batch cache amortized within one batch, "warm" is an incremental
// re-sweep against an already
// populated cache — the argod content-addressed-service pattern, and the
// headline speedup of the caching layer — and "disk_warm" re-runs with a
// fresh in-memory cache filled entirely from an on-disk cache directory
// (support/disk_cache.h), the cross-process warm start. The
// trace_overhead row re-runs the uncached cross sweep with the span
// recorder (support/trace.h) off vs. on-and-exported — the cost of
// leaving the observability instruments enabled. Every row also verifies the
// rendered JSON reports are byte-identical across thread counts and cache
// settings — the per-unit slots plus ladder-order assembly make the batch
// independent of how units interleave, and the uncached runs double as
// the differential oracle for the cached ones. `--json` emits the same
// rows as one machine-readable JSON document.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "sched/policy.h"
#include "scenarios/eval.h"
#include "support/trace.h"

namespace {

using Clock = std::chrono::steady_clock;

/// One timed runEval: renders the report and adds the wall time to *ms.
std::string timedEval(const argo::scenarios::EvalOptions& options,
                      double& ms) {
  const auto begin = Clock::now();
  const std::string json = argo::scenarios::runEval(options).toJson();
  ms = std::chrono::duration<double, std::milli>(Clock::now() - begin)
           .count();
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argo::bench::jsonRequested(argc, argv);
  argo::bench::ParallelBenchReport report("bench_parallel_eval", "units",
                                          json);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  argo::scenarios::EvalOptions options;
  options.generator.seed = 7;
  options.scenarioCount = 8;
  options.simTrials = 1;

  if (!json) {
    argo::bench::printHeader(
        "bench_parallel_eval: pooled scenario batch evaluation",
        "independent (scenario x policy) units run concurrently, "
        "byte-identical JSON report for any thread count");
    std::printf("hardware threads: %u (speedup needs >= 4)\n", hw);
  }

  const std::size_t policyCount =
      argo::sched::registeredPolicyNames().size();
  const std::size_t units8 =
      static_cast<std::size_t>(options.scenarioCount) * policyCount;

  // matrix8/graph: the sequential-vs-pooled row.
  options.threads = 1;
  double graphSeqMs = 0.0;
  const std::string graphSeq = timedEval(options, graphSeqMs);
  options.threads = 0;  // one worker per hardware thread
  double graphPooledMs = 0.0;
  const std::string graphPooled = timedEval(options, graphPooledMs);
  report.addRow(argo::bench::ParallelBenchRow{
      "matrix8", "graph", units8, graphSeqMs, graphPooledMs,
      graphSeq == graphPooled});

  // cross6: the full scenario x platform cross product (every sweep case,
  // default 9, for every scenario) on the graph engine, pooled. seq_ms
  // always carries the uncached run.
  argo::scenarios::EvalOptions cross;
  cross.generator.seed = 7;
  cross.scenarioCount = 6;
  cross.simTrials = 1;
  cross.sweepMode = argo::scenarios::SweepMode::Cross;
  cross.threads = 0;
  const std::size_t crossUnits =
      static_cast<std::size_t>(cross.scenarioCount) *
      argo::scenarios::buildPlatformSweep(cross.sweep).size() * policyCount;

  cross.cacheEnabled = false;
  double crossUncachedMs = 0.0;
  const std::string crossUncached = timedEval(cross, crossUncachedMs);

  // cross6/cache_cold: fresh cache, amortized within the single batch —
  // cross-policy and cross-cell prefix reuse plus identical-schedule hits.
  cross.cacheEnabled = true;
  auto shared = std::make_shared<argo::core::ToolchainCache>();
  cross.cache = shared;
  double crossColdMs = 0.0;
  const std::string crossCold = timedEval(cross, crossColdMs);
  report.addRow(argo::bench::ParallelBenchRow{
      "cross6", "cache_cold", crossUnits, crossUncachedMs, crossColdMs,
      crossCold == crossUncached});

  // cross6/cache_warm: the same sweep again against the now-populated
  // cache — only the simulator probes and report assembly recompute. This
  // is the incremental re-sweep / resident-service row and the headline
  // speedup of the caching layer (acceptance: >= 3x).
  double crossWarmMs = 0.0;
  const std::string crossWarm = timedEval(cross, crossWarmMs);
  report.addRow(argo::bench::ParallelBenchRow{
      "cross6", "cache_warm", crossUnits, crossUncachedMs, crossWarmMs,
      crossWarm == crossUncached});

  // cross6/disk_warm: the cross-process warm start. A first batch
  // populates a disk cache directory (support/disk_cache.h); the timed
  // run then starts with a FRESH in-memory cache — as a new process
  // would — and fills it entirely from disk. The gap between this row
  // and cache_warm is the cost of deserializing records instead of
  // sharing live memory.
  std::string cacheDir =
      (std::filesystem::temp_directory_path() / "argo_bench_disk_XXXXXX")
          .string();
  if (mkdtemp(cacheDir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + cacheDir);
  }
  cross.cache.reset();
  cross.cacheDir = cacheDir;
  double diskColdMs = 0.0;
  (void)timedEval(cross, diskColdMs);  // populate only
  double diskWarmMs = 0.0;
  const std::string diskWarm = timedEval(cross, diskWarmMs);
  report.addRow(argo::bench::ParallelBenchRow{
      "cross6", "disk_warm", crossUnits, crossUncachedMs, diskWarmMs,
      diskWarm == crossUncached});
  std::filesystem::remove_all(cacheDir);

  // cross6/trace_overhead: the same uncached cross sweep with the span
  // recorder off (seq_ms) vs. recording and exporting a full trace to
  // /dev/null (pooled_ms). "speedup" reads as off-over-on, so values
  // near 1.0 mean the instruments are cheap enough to leave in release
  // builds; "identical" checks the traced report against the untraced
  // reference — tracing must stay strictly off the report path.
  cross.cache.reset();
  cross.cacheDir.clear();
  cross.cacheEnabled = false;
  double untracedMs = 0.0;
  (void)timedEval(cross, untracedMs);  // warm-up parity with the traced run
  (void)timedEval(cross, untracedMs);
  argo::support::TraceRecorder::global().enable();
  double tracedMs = 0.0;
  const std::string traced = timedEval(cross, tracedMs);
  if (!argo::support::TraceRecorder::global().writeFile("/dev/null")) {
    throw std::runtime_error("trace export to /dev/null failed");
  }
  argo::support::TraceRecorder::global().reset();
  report.addRow(argo::bench::ParallelBenchRow{
      "cross6", "trace_overhead", crossUnits, untracedMs, tracedMs,
      traced == crossUncached});

  return report.finish();
}
