// Execution tracing: process-wide span recorder with Chrome trace-event
// JSON export (the span half of the observability layer; the counter half
// is support/metrics.h — see docs/OBSERVABILITY.md for the taxonomy).
//
// TraceRecorder::global() owns one append-only buffer per recording
// thread. TraceSpan is the RAII instrument: construction stamps the start
// time, destruction records one complete event ("ph":"X") with the
// elapsed duration into the calling thread's buffer. The hot path is a
// single relaxed atomic load — when tracing is disabled every instrument
// is a no-op that costs one branch, so instrumented code is safe to leave
// in release builds (perfbench's trace.overhead_frac measures the cost
// with tracing on).
//
// Buffers are per-thread and only the owning thread appends (under that
// buffer's own mutex, uncontended except against export), so recording
// needs no global synchronization and is TSan-clean. Export (toJson /
// writeFile) walks every buffer and emits Perfetto-loadable Chrome
// trace-event JSON: {"traceEvents":[{"ph":"X","pid":1,"tid":T,"ts":us,
// "dur":us,"cat":...,"name":...,"args":{...}}, ...]}.
//
// Determinism: traces are telemetry, strictly off the report path. A
// trace's timestamps and event interleaving vary run to run; canonical
// report bytes never depend on whether tracing is on (the CLIs' --trace
// ctest cases cmp exactly that).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace argo::support {

namespace detail {
/// The one hot-path flag; read via TraceRecorder::enabled().
extern std::atomic<bool> traceEnabled;
}  // namespace detail

/// One span/event annotation, rendered into the "args" object.
struct TraceArg {
  std::string key;
  std::string value;
};

/// One recorded event, as exposed to tests via TraceRecorder::snapshot().
struct TraceEventView {
  char phase = 'X';  ///< 'X' = complete span, 'i' = instant event.
  std::string category;
  std::string name;
  int tid = 0;
  std::uint64_t startNs = 0;  ///< Nanoseconds since enable().
  std::uint64_t durNs = 0;    ///< 0 for instant events.
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  static TraceRecorder& global();

  /// The hot-path check every instrument performs first.
  [[nodiscard]] static bool enabled() noexcept {
    return detail::traceEnabled.load(std::memory_order_relaxed);
  }

  /// Starts recording; the time origin is stamped here. Idempotent.
  void enable();
  /// Stops recording; already-buffered events are kept for export.
  void disable();
  /// disable() plus dropping every buffered event and thread id. Threads
  /// that still hold a buffer re-register on their next record. Test
  /// isolation and CLI re-arm only.
  void reset();

  /// Records one complete span into the calling thread's buffer. No-op
  /// when disabled (instruments should have checked enabled() already).
  void recordComplete(const char* category, std::string name,
                      std::uint64_t startNs, std::uint64_t durNs,
                      std::vector<TraceArg> args);
  /// Records an instant event ("ph":"i") at the current time.
  void recordInstant(const char* category, std::string name,
                     std::vector<TraceArg> args = {});

  /// Nanoseconds since enable(); 0 when never enabled.
  [[nodiscard]] std::uint64_t nowNs() const;

  /// Every buffered event, buffers in thread-id order, append order
  /// within a buffer. Safe against concurrent recording.
  [[nodiscard]] std::vector<TraceEventView> snapshot() const;
  [[nodiscard]] std::size_t eventCount() const;

  /// Chrome trace-event JSON of the whole buffer set (ts/dur in
  /// microseconds, exact to the nanosecond in 3 decimals).
  [[nodiscard]] std::string toJson() const;
  /// Writes toJson() to `path`; false on any I/O failure.
  [[nodiscard]] bool writeFile(const std::string& path) const;

 private:
  struct Event {
    char phase;
    const char* category;  ///< String literal owned by the instrument site.
    std::string name;
    std::uint64_t startNs;
    std::uint64_t durNs;
    std::vector<TraceArg> args;
  };
  struct ThreadBuffer {
    std::mutex mutex;  ///< Owner appends; export reads. Uncontended.
    int tid = 0;
    std::vector<Event> events;
  };

  /// The calling thread's buffer for the current epoch, registering it on
  /// first use (and re-registering after reset()).
  ThreadBuffer& localBuffer();

  mutable std::mutex mutex_;  ///< Guards buffers_ registration and export.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> originNs_{0};  ///< steady_clock ns at enable().
};

/// RAII span: records one "ph":"X" event over its own lifetime. When
/// tracing is disabled, construction is one relaxed load and everything
/// else is a no-op. Callers that build a dynamic name should guard the
/// construction with TraceRecorder::enabled() to keep the disabled path
/// allocation-free.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) {
    if (TraceRecorder::enabled()) begin(category, name);
  }
  TraceSpan(const char* category, const std::string& name) {
    if (TraceRecorder::enabled()) begin(category, name);
  }
  TraceSpan(const char* category, std::string_view name) {
    if (TraceRecorder::enabled()) begin(category, std::string(name));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Attaches a key/value annotation; no-op when the span is inactive.
  void arg(const char* key, std::string value) {
    if (active_) args_.push_back(TraceArg{key, std::move(value)});
  }
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  void begin(const char* category, std::string name);

  bool active_ = false;
  const char* category_ = nullptr;
  std::string name_;
  std::uint64_t startNs_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace argo::support
