#include "support/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "support/strings.h"

namespace argo::support {

namespace detail {
std::atomic<bool> traceEnabled{false};
}  // namespace detail

namespace {

std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ts/dur in microseconds with 3 decimals: exact for nanosecond inputs.
void appendMicros(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable() {
  if (enabled()) return;
  originNs_.store(steadyNowNs(), std::memory_order_relaxed);
  detail::traceEnabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  detail::traceEnabled.store(false, std::memory_order_release);
}

void TraceRecorder::reset() {
  disable();
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  originNs_.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::nowNs() const {
  const std::uint64_t origin = originNs_.load(std::memory_order_relaxed);
  if (origin == 0) return 0;
  const std::uint64_t now = steadyNowNs();
  return now > origin ? now - origin : 0;
}

TraceRecorder::ThreadBuffer& TraceRecorder::localBuffer() {
  // The cached pointer survives reset(): the epoch check notices the
  // registry was cleared and re-registers. A thread mid-append during a
  // reset keeps its orphaned buffer alive through the shared_ptr — its
  // stray events simply never reach an export.
  struct Cache {
    std::uint64_t epoch = 0;
    std::shared_ptr<ThreadBuffer> buffer;
  };
  thread_local Cache cache;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (cache.epoch != epoch || !cache.buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffer->tid = static_cast<int>(buffers_.size());
      buffers_.push_back(buffer);
    }
    cache.epoch = epoch;
    cache.buffer = std::move(buffer);
  }
  return *cache.buffer;
}

void TraceRecorder::recordComplete(const char* category, std::string name,
                                   std::uint64_t startNs, std::uint64_t durNs,
                                   std::vector<TraceArg> args) {
  if (!enabled()) return;
  ThreadBuffer& buffer = localBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      Event{'X', category, std::move(name), startNs, durNs, std::move(args)});
}

void TraceRecorder::recordInstant(const char* category, std::string name,
                                  std::vector<TraceArg> args) {
  if (!enabled()) return;
  ThreadBuffer& buffer = localBuffer();
  const std::uint64_t at = nowNs();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      Event{'i', category, std::move(name), at, 0, std::move(args)});
}

std::vector<TraceEventView> TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEventView> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const Event& e : buffer->events) {
      TraceEventView view;
      view.phase = e.phase;
      view.category = e.category;
      view.name = e.name;
      view.tid = buffer->tid;
      view.startNs = e.startNs;
      view.durNs = e.durNs;
      view.args = e.args;
      out.push_back(std::move(view));
    }
  }
  return out;
}

std::size_t TraceRecorder::eventCount() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::size_t count = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

std::string TraceRecorder::toJson() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const Event& e : buffer->events) {
      out += first ? "{" : ",{";
      first = false;
      out += "\"ph\":\"";
      out += e.phase;
      out += "\",\"pid\":1,\"tid\":";
      out += std::to_string(buffer->tid);
      out += ",\"ts\":";
      appendMicros(out, e.startNs);
      if (e.phase == 'X') {
        out += ",\"dur\":";
        appendMicros(out, e.durNs);
      } else if (e.phase == 'i') {
        out += ",\"s\":\"t\"";  // thread-scoped instant
      }
      out += ",\"cat\":\"";
      out += jsonEscape(e.category);
      out += "\",\"name\":\"";
      out += jsonEscape(e.name);
      out += "\"";
      if (!e.args.empty()) {
        out += ",\"args\":{";
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i != 0) out += ",";
          out += "\"";
          out += jsonEscape(e.args[i].key);
          out += "\":\"";
          out += jsonEscape(e.args[i].value);
          out += "\"";
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceRecorder::writeFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string json = toJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out << "\n";
  out.flush();
  return static_cast<bool>(out);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceRecorder& recorder = TraceRecorder::global();
  const std::uint64_t end = recorder.nowNs();
  recorder.recordComplete(category_, std::move(name_), startNs_,
                          end > startNs_ ? end - startNs_ : 0,
                          std::move(args_));
}

void TraceSpan::begin(const char* category, std::string name) {
  active_ = true;
  category_ = category;
  name_ = std::move(name);
  startNs_ = TraceRecorder::global().nowNs();
}

}  // namespace argo::support
