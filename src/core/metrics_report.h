// Shared cache/metrics reporting for the CLIs and the batch evaluator.
// This header is the one definition of both:
//
//  * warnDiskRejects — the pinned, unconditional stderr line for a
//    nonzero disk-tier reject count ("<tool>: disk cache rejected N
//    record(s) (recomputed; cache dir may be damaged or version-skewed)").
//    The wording after the tool prefix is byte-pinned by ctest
//    (argo_eval_reports_disk_cache_rejects) — change it only with the test.
//  * appendMetricsJson — the `metrics` block of the --timings JSON: the
//    full support::MetricsRegistry snapshot merged with the per-stage
//    cache counters (spelled by the kDiskStage* names, matching the
//    "cache" trace spans) and the disk-tier counters, one flat
//    name-sorted namespace.
#pragma once

#include <optional>
#include <string>

#include "core/cache.h"

namespace argo::core {

/// Prints the pinned disk-reject warning to stderr iff `stats` carries a
/// disk tier with rejects > 0. `tool` is the CLI name prefix.
void warnDiskRejects(const char* tool,
                     const std::optional<ToolchainCacheStats>& stats);

/// Appends `,"metrics":{"name":value,...}` to `out` (leading comma
/// included): every registered metric plus, when `cacheStats` is present,
/// cache.<stage>.{hits,misses,inflight_waits} and (with a disk tier)
/// disk.{hits,misses,rejects,stores,store_failures}. Names sorted.
void appendMetricsJson(std::string& out,
                       const std::optional<ToolchainCacheStats>& cacheStats);

}  // namespace argo::core
