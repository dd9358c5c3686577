#include "core/metrics_report.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "support/metrics.h"
#include "support/strings.h"

namespace argo::core {

namespace {

using support::jsonEscape;

void addStage(std::vector<std::pair<std::string, std::uint64_t>>& entries,
              std::string_view stage, const support::StageCacheStats& s) {
  const std::string prefix = "cache." + std::string(stage) + ".";
  entries.emplace_back(prefix + "hits", s.hits);
  entries.emplace_back(prefix + "misses", s.misses);
  entries.emplace_back(prefix + "inflight_waits", s.inflightWaits);
}

}  // namespace

void warnDiskRejects(const char* tool, const ToolchainCacheStats& stats) {
  if (!stats.disk.has_value() || stats.disk->rejects == 0) return;
  // Determinism-relevant (a damaged or version-skewed cache directory
  // silently costing recomputes), so surfaced regardless of --timings —
  // unlike every other cache counter. Wording pinned by ctest.
  std::fprintf(stderr,
               "%s: disk cache rejected %llu record(s) "
               "(recomputed; cache dir may be damaged or "
               "version-skewed)\n",
               tool,
               static_cast<unsigned long long>(stats.disk->rejects));
}

void appendMetricsJson(std::string& out,
                       const ToolchainCacheStats& cacheStats) {
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  for (const support::MetricSample& sample :
       support::MetricsRegistry::global().snapshot()) {
    entries.emplace_back(sample.name, sample.value);
  }
  // The per-stage counters fold into the same namespace under the
  // kDiskStage* spelling — the one the per-lookup "cache" trace spans are
  // named with, so span totals and counters line up one-to-one.
  addStage(entries, kDiskStageTransforms, cacheStats.transforms);
  addStage(entries, kDiskStageSequentialWcet, cacheStats.sequentialWcet);
  addStage(entries, kDiskStageExpansion, cacheStats.expansion);
  addStage(entries, kDiskStageTimings, cacheStats.timings);
  addStage(entries, kDiskStageSchedules, cacheStats.schedules);
  if (cacheStats.disk.has_value()) {
    const support::DiskCacheStats& d = *cacheStats.disk;
    entries.emplace_back("disk.hits", d.hits);
    entries.emplace_back("disk.misses", d.misses);
    entries.emplace_back("disk.rejects", d.rejects);
    entries.emplace_back("disk.stores", d.stores);
    entries.emplace_back("disk.store_failures", d.storeFailures);
  }
  std::sort(entries.begin(), entries.end());

  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"";
    out += jsonEscape(entries[i].first);
    out += "\":";
    out += std::to_string(entries[i].second);
  }
  out += "}";
}

}  // namespace argo::core
