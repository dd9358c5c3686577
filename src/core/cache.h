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
//                    parallelThreads, interference method)
//
// Keys chain: each stage folds its upstream stage's key in, so a change
// anywhere upstream invalidates everything downstream and nothing else.
// Inputs a stage cannot observe are deliberately NOT keyed — platform and
// core display names (reports-only), sched::SchedOptions::parallelThreads
// and ToolchainOptions::explorationThreads (execution knobs; results are
// thread-count-invariant by the determinism contract), and simulator
// settings. That is what makes a cached value byte-identical to a fresh
// computation: every stage is a pure function of its keyed inputs.
//
// Sharing: one ToolchainCache may serve many Toolchain instances across
// threads (scenarios::runEval shares one across the whole batch; the
// future argod service shares one across requests). Single-flight and
// thread safety come from support::StageCache.
//
// Disk tier: attachDisk(dir) layers a support::DiskCache under the five
// in-memory caches, making the lookup order memory -> disk -> compute.
// The disk probe runs inside the in-memory compute closure, i.e. on the
// single-flight owner's thread, so per process each key touches the disk
// at most once. Every stage value has a canonical binary codec below
// (encode*/decode*); a record that fails its envelope validation OR its
// payload decode is counted as a reject and recomputed — identical bytes
// either way, because each stage is a pure function of its keyed inputs.
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
/// list, and the canonical IR text every downstream key derives from.
struct TransformsStage {
  std::unique_ptr<const ir::Function> fn;
  std::vector<std::string> passesRun;
  std::string irText;          ///< ir::toString(*fn).
  support::StageKey irKey;     ///< Hash of irText, computed once.
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
// One canonical binary encoding per cached stage value, built on the
// ByteWriter/ByteReader framing. Decoders are total: nullopt on any
// malformed payload, never a throw or a partially-filled value. The
// determinism argument for the whole disk tier reduces to: encode is a
// pure function of the value, decode(encode(v)) == v (proven per stage in
// tests/disk_cache_test.cpp), and every stage value is a pure function of
// its key.

[[nodiscard]] std::string encodeTransformsStage(const TransformsStage&);
/// Rebuilds the stage from its payload; irText/irKey are *recomputed*
/// from the decoded function (the printer is canonical), so they can
/// never disagree with the tree.
[[nodiscard]] std::optional<TransformsStage> decodeTransformsStage(
    std::string_view payload);

[[nodiscard]] std::string encodeCycles(adl::Cycles value);
[[nodiscard]] std::optional<adl::Cycles> decodeCycles(
    std::string_view payload);

[[nodiscard]] std::string encodeExpandStage(const ExpandStage&);
/// `source` is the (already loaded or computed) transforms stage this
/// expansion was keyed against: the decoded graph's statements are owned
/// clones, but its `fn` pointer targets source->fn, exactly like a fresh
/// expansion. Key chaining guarantees the pairing is right — expansionKey
/// embeds the transforms stage's irKey.
[[nodiscard]] std::optional<ExpandStage> decodeExpandStage(
    std::string_view payload, std::shared_ptr<const TransformsStage> source);

[[nodiscard]] std::string encodeTimings(
    const std::vector<sched::TaskTiming>&);
[[nodiscard]] std::optional<std::vector<sched::TaskTiming>> decodeTimings(
    std::string_view payload);

[[nodiscard]] std::string encodeScheduleStage(const ScheduleStage&);
[[nodiscard]] std::optional<ScheduleStage> decodeScheduleStage(
    std::string_view payload);

/// Stage directory names of the disk tier (dir/<stage>/<key>.rec). Also
/// the <stage> of the cache.<stage>.* metrics and of the "cache" trace
/// spans; fixed forever short of a format bump.
inline constexpr std::string_view kDiskStageTransforms = "transforms";
inline constexpr std::string_view kDiskStageSequentialWcet = "seqwcet";
inline constexpr std::string_view kDiskStageExpansion = "expand";
inline constexpr std::string_view kDiskStageTimings = "timings";
inline constexpr std::string_view kDiskStageSchedules = "schedule";

/// The five stage caches of one tool-chain instance pool. Create one,
/// share it via ToolchainOptions::cache across every run that should
/// reuse work. The get* accessors are what core::Toolchain calls: the
/// in-memory tier plus, when attachDisk() was called, the on-disk tier
/// probed from inside the single-flight compute slot.
class ToolchainCache {
 public:
  support::StageCache<TransformsStage> transforms;
  support::StageCache<adl::Cycles> sequentialWcet;
  support::StageCache<ExpandStage> expansion;
  support::StageCache<std::vector<sched::TaskTiming>> timings;
  support::StageCache<ScheduleStage> schedules;

  /// Layers an on-disk tier rooted at `dir` under the in-memory caches.
  /// Call before sharing the cache; not synchronized against concurrent
  /// lookups.
  void attachDisk(std::string dir) {
    disk_ = std::make_shared<support::DiskCache>(std::move(dir));
  }

  [[nodiscard]] support::DiskCache* disk() const noexcept {
    return disk_.get();
  }

  template <typename Compute>
  std::shared_ptr<const TransformsStage> getTransforms(
      const support::StageKey& key, Compute&& compute) {
    return tiered(transforms, kDiskStageTransforms, key,
                  std::forward<Compute>(compute), encodeTransformsStage,
                  [](std::string_view p) { return decodeTransformsStage(p); });
  }

  template <typename Compute>
  std::shared_ptr<const adl::Cycles> getSequentialWcet(
      const support::StageKey& key, Compute&& compute) {
    return tiered(sequentialWcet, kDiskStageSequentialWcet, key,
                  std::forward<Compute>(compute), encodeCycles,
                  [](std::string_view p) { return decodeCycles(p); });
  }

  template <typename Compute>
  std::shared_ptr<const ExpandStage> getExpansion(
      const support::StageKey& key,
      const std::shared_ptr<const TransformsStage>& source,
      Compute&& compute) {
    return tiered(expansion, kDiskStageExpansion, key,
                  std::forward<Compute>(compute),
                  [](const ExpandStage& v) { return encodeExpandStage(v); },
                  [&source](std::string_view p) {
                    return decodeExpandStage(p, source);
                  });
  }

  template <typename Compute>
  std::shared_ptr<const std::vector<sched::TaskTiming>> getTimings(
      const support::StageKey& key, Compute&& compute) {
    return tiered(timings, kDiskStageTimings, key,
                  std::forward<Compute>(compute),
                  [](const std::vector<sched::TaskTiming>& v) {
                    return encodeTimings(v);
                  },
                  [](std::string_view p) { return decodeTimings(p); });
  }

  template <typename Compute>
  std::shared_ptr<const ScheduleStage> getSchedules(
      const support::StageKey& key, Compute&& compute) {
    return tiered(schedules, kDiskStageSchedules, key,
                  std::forward<Compute>(compute), encodeScheduleStage,
                  [](std::string_view p) { return decodeScheduleStage(p); });
  }

  [[nodiscard]] ToolchainCacheStats stats() const noexcept;

 private:
  /// memory -> disk -> compute. Runs on the single-flight owner's thread;
  /// a decodable record short-circuits the compute, anything else is a
  /// counted reject (noteReject for payload-level failures — the envelope
  /// ones DiskCache::load already counted) followed by compute + store.
  template <typename Value, typename Compute, typename Encode,
            typename Decode>
  std::shared_ptr<const Value> tiered(support::StageCache<Value>& memory,
                                      std::string_view stage,
                                      const support::StageKey& key,
                                      Compute&& compute, Encode&& encode,
                                      Decode&& decode) {
    // One "cache" span per lookup, named by the stage's disk-directory
    // spelling with the single-flight outcome attached — the per-lookup
    // view whose per-stage totals equal the cache.<stage>.* counters of
    // the `metrics` block (tools/trace_summary.py --metrics checks that).
    support::TraceSpan span("cache", stage);
    support::StageCacheOutcome outcome = support::StageCacheOutcome::Miss;
    support::DiskCache* const disk = disk_.get();
    std::shared_ptr<const Value> value;
    if (disk == nullptr) {
      value = memory.getOrCompute(key, std::forward<Compute>(compute),
                                  &outcome);
    } else {
      value = memory.getOrCompute(
          key,
          [&]() -> Value {
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
          },
          &outcome);
    }
    span.arg("cache", support::stageCacheOutcomeName(outcome));
    return value;
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
/// SchedOptions field except parallelThreads, which only selects how the
/// identical result is computed.
[[nodiscard]] support::StageKey scheduleKey(
    const support::StageKey& timings, const adl::Platform& platform,
    const sched::SchedOptions& options, syswcet::InterferenceMethod method);

}  // namespace argo::core
