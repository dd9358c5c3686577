// Content-hash stage cache for the tool-chain: the incremental pipeline.
//
// A platform sweep re-runs the pipeline per (scenario x platform x policy)
// cell, yet most cells share everything up to placement: the transformed
// IR, the HTG expansion, and the per-task WCETs depend only on a *slice*
// of the inputs. ToolchainCache memoizes each stage of core::Toolchain on
// a 128-bit content hash of exactly the inputs that stage can observe:
//
//   transforms      (model IR text, transform flags, tile-0 SPM slice)
//   sequentialWcet  (transformed IR, tile-0 timing-model slice)
//   expansion       (transformed IR, chunksPerLoop, mergeScalarChains)
//   timings         (expansion key, all-tile timing-model slices)
//   schedules       (timings key, full pricing model, SchedOptions minus
//                    the ignored parallelThreads, interference method)
//
// Keys chain: each stage folds its upstream stage's key in, so a change
// anywhere upstream invalidates everything downstream and nothing else.
// Inputs a stage cannot observe are deliberately NOT keyed — platform and
// core display names (reports-only), the ignored thread knobs
// sched::SchedOptions::parallelThreads and
// ToolchainOptions::explorationThreads, and simulator settings. That is
// what makes a cached value byte-identical to a fresh computation: every
// stage is a pure function of its keyed inputs.
//
// Sharing: one ToolchainCache may serve many Toolchain instances across
// threads (scenarios::runEval shares one across the whole batch).
// Single-flight and thread safety come from support::StageCache.
//
// Disk tier: attachDisk(dir) layers a support::DiskCache under three of
// the five in-memory caches — sequentialWcet, timings and schedules —
// making their lookup order memory -> disk -> compute. Those three values
// are plain data (cycle counts, timing tables, placements and bounds), so
// every disk decoder reads integers and strings only. The two IR stages,
// transforms and expansion, stay in memory: a warm start recomputes them,
// which measured no slower than loading a serialized IR tree, and yields
// the same bytes because every stage is a pure function of its key. The
// disk probe runs inside the in-memory compute closure, i.e. on the
// single-flight owner's thread, so per process each key touches the disk
// at most once. A record that fails its envelope validation OR its
// payload decode is counted as a reject and recomputed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adl/platform.h"
#include "htg/htg.h"
#include "sched/options.h"
#include "sched/schedule.h"
#include "support/disk_cache.h"
#include "support/hash.h"
#include "support/stage_cache.h"
#include "support/trace.h"
#include "syswcet/system_wcet.h"

namespace argo::core {

/// Cached value of the transforms stage: the transformed function (shared
/// read-only by every consumer, ToolchainResult::fn included), the pass
/// list, and the key every downstream key derives from.
struct TransformsStage {
  std::unique_ptr<const ir::Function> fn;
  std::vector<std::string> passesRun;
  support::StageKey irKey;  ///< Hash of ir::toString(*fn), computed once.
};

/// Cached value of one HTG expansion. The graph's task statements are
/// clones it owns, but the graph points at the source function — `source`
/// keeps that function alive for as long as the graph is shared.
struct ExpandStage {
  std::shared_ptr<const TransformsStage> source;
  std::unique_ptr<const htg::TaskGraph> graph;
};

/// Cached value of one schedule + system-WCET evaluation (one feedback
/// candidate). Plain value types — safe to copy into ToolchainResult.
struct ScheduleStage {
  sched::Schedule schedule;
  syswcet::SystemWcet system;
};

/// Per-stage lookup counters (see support::StageCacheStats for the
/// determinism caveat on the hit/wait split). `disk` is present iff a
/// disk tier is attached; its `rejects` field is determinism-relevant
/// (see support::DiskCacheStats) and surfaced unconditionally by the
/// CLIs, unlike the rest of this struct.
struct ToolchainCacheStats {
  support::StageCacheStats transforms;
  support::StageCacheStats sequentialWcet;
  support::StageCacheStats expansion;
  support::StageCacheStats timings;
  support::StageCacheStats schedules;
  std::optional<support::DiskCacheStats> disk;
};

// ---- Disk payload codecs -------------------------------------------------
// One canonical binary encoding per persisted stage value, built on the
// ByteWriter/ByteReader framing. Decoders are total: nullopt on any
// malformed payload, never a throw or a partially-filled value. The
// determinism argument for the whole disk tier reduces to: encode is a
// pure function of the value, decode(encode(v)) == v (proven per stage in
// tests/disk_cache_test.cpp), and every stage value is a pure function of
// its key.

[[nodiscard]] std::string encodeCycles(adl::Cycles value);
[[nodiscard]] std::optional<adl::Cycles> decodeCycles(
    std::string_view payload);

[[nodiscard]] std::string encodeTimings(
    const std::vector<sched::TaskTiming>&);
[[nodiscard]] std::optional<std::vector<sched::TaskTiming>> decodeTimings(
    std::string_view payload);

[[nodiscard]] std::string encodeScheduleStage(const ScheduleStage&);
[[nodiscard]] std::optional<ScheduleStage> decodeScheduleStage(
    std::string_view payload);

/// Stage names: the <stage> of the cache.<stage>.* metrics and of the
/// "cache" trace spans, and, for the three persisted stages, the disk
/// directory (dir/<stage>/<key>.rec). Fixed forever short of a format
/// bump.
inline constexpr std::string_view kDiskStageTransforms = "transforms";
inline constexpr std::string_view kDiskStageSequentialWcet = "seqwcet";
inline constexpr std::string_view kDiskStageExpansion = "expand";
inline constexpr std::string_view kDiskStageTimings = "timings";
inline constexpr std::string_view kDiskStageSchedules = "schedule";

/// The five stage caches of one tool-chain instance pool. Create one,
/// share it via ToolchainOptions::cache across every run that should
/// reuse work. The get* accessors are what core::Toolchain calls: the
/// in-memory tier plus, for the plain-data stages once attachDisk() was
/// called, the on-disk tier probed from inside the single-flight compute
/// slot.
class ToolchainCache {
 public:
  support::StageCache<TransformsStage> transforms;
  support::StageCache<adl::Cycles> sequentialWcet;
  support::StageCache<ExpandStage> expansion;
  support::StageCache<std::vector<sched::TaskTiming>> timings;
  support::StageCache<ScheduleStage> schedules;

  /// Layers an on-disk tier rooted at `dir` under the in-memory caches of
  /// the plain-data stages. Call before sharing the cache; not
  /// synchronized against concurrent lookups.
  void attachDisk(std::string dir) {
    disk_ = std::make_shared<support::DiskCache>(std::move(dir));
  }

  [[nodiscard]] support::DiskCache* disk() const noexcept {
    return disk_.get();
  }

  template <typename Compute>
  std::shared_ptr<const TransformsStage> getTransforms(
      const support::StageKey& key, Compute&& compute) {
    return lookup(transforms, kDiskStageTransforms, key,
                  std::forward<Compute>(compute));
  }

  template <typename Compute>
  std::shared_ptr<const adl::Cycles> getSequentialWcet(
      const support::StageKey& key, Compute&& compute) {
    return tiered(sequentialWcet, kDiskStageSequentialWcet, key,
                  std::forward<Compute>(compute), encodeCycles, decodeCycles);
  }

  template <typename Compute>
  std::shared_ptr<const ExpandStage> getExpansion(
      const support::StageKey& key, Compute&& compute) {
    return lookup(expansion, kDiskStageExpansion, key,
                  std::forward<Compute>(compute));
  }

  template <typename Compute>
  std::shared_ptr<const std::vector<sched::TaskTiming>> getTimings(
      const support::StageKey& key, Compute&& compute) {
    return tiered(timings, kDiskStageTimings, key,
                  std::forward<Compute>(compute), encodeTimings,
                  decodeTimings);
  }

  template <typename Compute>
  std::shared_ptr<const ScheduleStage> getSchedules(
      const support::StageKey& key, Compute&& compute) {
    return tiered(schedules, kDiskStageSchedules, key,
                  std::forward<Compute>(compute), encodeScheduleStage,
                  decodeScheduleStage);
  }

  [[nodiscard]] ToolchainCacheStats stats() const noexcept;

 private:
  /// One in-memory lookup under one "cache" span, named by the stage with
  /// the single-flight outcome attached — the per-lookup view whose
  /// per-stage totals equal the cache.<stage>.* counters of the `metrics`
  /// block (tools/trace_summary.py --metrics checks that).
  template <typename Value, typename Compute>
  std::shared_ptr<const Value> lookup(support::StageCache<Value>& memory,
                                      std::string_view stage,
                                      const support::StageKey& key,
                                      Compute&& compute) {
    support::TraceSpan span("cache", stage);
    support::StageCacheOutcome outcome = support::StageCacheOutcome::Miss;
    std::shared_ptr<const Value> value =
        memory.getOrCompute(key, std::forward<Compute>(compute), &outcome);
    span.arg("cache", support::stageCacheOutcomeName(outcome));
    return value;
  }

  /// memory -> disk -> compute. The disk probe runs on the single-flight
  /// owner's thread; a decodable record short-circuits the compute,
  /// anything else is a counted reject (noteReject for payload-level
  /// failures — the envelope ones DiskCache::load already counted)
  /// followed by compute + store.
  template <typename Value, typename Compute, typename Encode,
            typename Decode>
  std::shared_ptr<const Value> tiered(support::StageCache<Value>& memory,
                                      std::string_view stage,
                                      const support::StageKey& key,
                                      Compute&& compute, Encode&& encode,
                                      Decode&& decode) {
    support::DiskCache* const disk = disk_.get();
    return lookup(memory, stage, key, [&]() -> Value {
      if (disk == nullptr) return compute();
      if (std::optional<std::string> payload = disk->load(stage, key)) {
        std::optional<Value> decoded = decode(*payload);
        if (decoded.has_value()) return std::move(*decoded);
        disk->noteReject();
        if (support::TraceRecorder::enabled()) {
          support::TraceRecorder::global().recordInstant(
              "disk", "reject",
              {support::TraceArg{"stage", std::string(stage)}});
        }
      }
      Value computed = compute();
      disk->store(stage, key, encode(computed));
      return computed;
    });
  }

  std::shared_ptr<support::DiskCache> disk_;
};

// ---- Canonical platform slices ------------------------------------------
// The "what can this stage observe" lists, as canonical text. Keys hash
// these; tests compare them directly when arguing key sensitivity.

/// What the transform passes observe: tile-0 scratchpad capacity and
/// access cost, and the uncontended shared access cost from tile 0 (the
/// ScratchpadAllocation pass parameters).
[[nodiscard]] std::string transformPlatformSlice(const adl::Platform&);

/// What the code-level WCET analysis of one tile observes: that tile's
/// core cycle table, local/SPM access costs, and uncontended shared
/// access cost (wcet::TimingModel::forTile).
[[nodiscard]] std::string tileTimingSlice(const adl::Platform&, int tile);

/// What the per-task timing analysis observes: every tile's timing slice
/// (TaskTiming::wcetByTile spans all tiles).
[[nodiscard]] std::string timingPlatformSlice(const adl::Platform&);

// ---- Stage keys ----------------------------------------------------------

[[nodiscard]] support::StageKey transformsKey(std::string_view modelIrText,
                                              const adl::Platform& platform,
                                              bool runTransforms,
                                              bool spmAllocation);

[[nodiscard]] support::StageKey sequentialWcetKey(
    const support::StageKey& transformedIr, const adl::Platform& platform);

[[nodiscard]] support::StageKey expansionKey(
    const support::StageKey& transformedIr, int chunksPerLoop,
    bool mergeScalarChains);

[[nodiscard]] support::StageKey timingsKey(const support::StageKey& expansion,
                                           const adl::Platform& platform);

/// The schedule/syswcet stage observes the full pricing model
/// (adl::Platform::canonicalText — policies price communication and
/// par::buildParallelProgram checks address capacities) and every
/// SchedOptions field except parallelThreads, which nothing reads.
[[nodiscard]] support::StageKey scheduleKey(
    const support::StageKey& timings, const adl::Platform& platform,
    const sched::SchedOptions& options, syswcet::InterferenceMethod method);

}  // namespace argo::core
