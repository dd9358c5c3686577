// Process-wide registry of named monotonic counters: the numeric half of
// the observability layer (docs/OBSERVABILITY.md; the span half is
// support/trace.h).
//
// MetricsRegistry::global() maps a dotted name ("graph.nodes_run",
// "graph.ready_wait_us") to a counter that lives for the whole process.
// counter() gets-or-creates under a mutex and returns a stable reference
// — instruments cache the reference once and then update it with a single
// relaxed atomic op, so the hot path never touches the registry lock.
// Counters only ever grow.
//
// Determinism: metrics are telemetry, strictly off the report path. They
// are rendered only inside the wall-clock opt-in `--timings` JSON (the
// `metrics` block) — never in canonical report bytes. Many counters are
// scheduling-dependent (hit/wait splits, ready-queue waits); only sums the
// determinism contract already fixes (e.g. total cache lookups) are
// stable run to run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace argo::support {

/// A monotonically increasing event count.
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One (name, value) pair of a registry snapshot.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrument reports into.
  static MetricsRegistry& global();

  /// Get-or-create; the returned reference is valid for the registry's
  /// lifetime (entries are never erased).
  MetricCounter& counter(std::string_view name);

  /// Every registered counter, sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

 private:
  mutable std::mutex mutex_;
  // Node-based map of owned counters: returned references stay stable.
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>>
      counters_;
};

}  // namespace argo::support
