// Generic thread-safe single-flight memoization, keyed by StageKey.
//
// StageCache<V> maps a content-hash key to a once-computed value. The
// first caller of getOrCompute for a key runs the compute closure inline
// on its own thread; concurrent callers for the same key block on a
// condition variable until that one computation publishes (single-flight:
// a popular key is computed exactly once, never N times in parallel).
// Values are published as shared_ptr<const V>, so consumers can hold them
// beyond the cache's own lifetime and no caller can mutate a shared slot.
//
// Deadlock-freedom under the batch graph (support/graph.h): the owning
// caller computes *inline* — it is by definition a running thread, never
// a queued task — so waiters always wait on a thread that is actively
// making progress.
//
// Failure: if the compute closure throws, the error is published to the
// waiters of that in-flight computation (they rethrow it), and the slot
// is erased — a later lookup retries from scratch.
//
// The cache is unbounded and in-process: one batch owns it and its
// lifetime bounds the memory. Nothing is evicted; the on-disk tier
// (support/disk_cache.h) is layered under it by core::ToolchainCache.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/hash.h"

namespace argo::support {

/// How one getOrCompute call was served. Mirrors the StageCacheStats
/// counters one-to-one; instruments (core::ToolchainCache's per-lookup
/// trace spans) use it to attribute a single lookup without re-deriving
/// it from counter deltas.
enum class StageCacheOutcome : std::uint8_t { Hit, Miss, InflightWait };

[[nodiscard]] constexpr const char* stageCacheOutcomeName(
    StageCacheOutcome outcome) noexcept {
  switch (outcome) {
    case StageCacheOutcome::Hit:
      return "hit";
    case StageCacheOutcome::Miss:
      return "miss";
    case StageCacheOutcome::InflightWait:
      return "inflight_wait";
  }
  return "unknown";
}

/// Lookup counters of one StageCache. hits + misses + inflightWaits is
/// the deterministic total lookup count, but the split between hits and
/// inflightWaits depends on thread timing — report the counters only in
/// wall-clock-style opt-in output, never in canonical reports.
struct StageCacheStats {
  std::uint64_t hits = 0;           ///< Found a completed value.
  std::uint64_t misses = 0;         ///< Computed the value itself.
  std::uint64_t inflightWaits = 0;  ///< Waited on another thread's compute.

  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return hits + misses + inflightWaits;
  }
};

template <typename Value>
class StageCache {
 public:
  /// Returns the cached value for `key`, computing it via `compute()` if
  /// absent. Exactly one concurrent caller per key runs `compute`. When
  /// `outcome` is non-null it receives how this lookup was served (the
  /// same classification the stats counters accumulate).
  template <typename Compute>
  std::shared_ptr<const Value> getOrCompute(
      const StageKey& key, Compute&& compute,
      StageCacheOutcome* outcome = nullptr) {
    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto [it, inserted] = map_.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<Entry>();
        owner = true;
      }
      entry = it->second;
    }

    if (owner) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = StageCacheOutcome::Miss;
      std::shared_ptr<const Value> value;
      try {
        value = std::make_shared<const Value>(compute());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(entry->m);
          entry->error = std::current_exception();
          entry->state = State::Failed;
        }
        entry->cv.notify_all();
        std::lock_guard<std::mutex> lock(mutex_);
        map_.erase(key);
        throw;
      }
      {
        std::lock_guard<std::mutex> lock(entry->m);
        entry->value = value;
        entry->state = State::Ready;
      }
      entry->cv.notify_all();
      return value;
    }

    std::unique_lock<std::mutex> lock(entry->m);
    if (entry->state == State::Ready) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = StageCacheOutcome::Hit;
      return entry->value;
    }
    inflightWaits_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) *outcome = StageCacheOutcome::InflightWait;
    entry->cv.wait(lock, [&] { return entry->state != State::Pending; });
    if (entry->state == State::Failed) {
      std::rethrow_exception(entry->error);
    }
    return entry->value;
  }

  /// Completed entries currently resident.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  [[nodiscard]] StageCacheStats stats() const noexcept {
    StageCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inflightWaits = inflightWaits_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  enum class State : std::uint8_t { Pending, Ready, Failed };

  struct Entry {
    std::mutex m;
    std::condition_variable cv;
    State state = State::Pending;
    std::shared_ptr<const Value> value;
    std::exception_ptr error;
  };

  mutable std::mutex mutex_;
  std::unordered_map<StageKey, std::shared_ptr<Entry>, StageKeyHash> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inflightWaits_{0};
};

}  // namespace argo::support
