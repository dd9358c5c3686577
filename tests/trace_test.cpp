// Unit tests for the observability layer: support/trace.h span recording
// (nesting, thread attribution, args, JSON shape, reset isolation) and
// support/metrics.h counters (monotonicity, reference stability, sorted
// snapshots), plus an oversubscribed concurrent-recording stress with a
// live export racing the writers. All suites carry "Trace" in the name so
// the TSan CI job's ctest regex picks them up.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/trace.h"

namespace {

using namespace argo::support;

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceRecorder::global().reset(); }
  void TearDown() override { TraceRecorder::global().reset(); }
};

TEST_F(TraceRecorderTest, DisabledRecordsNothingAndSpansAreInactive) {
  ASSERT_FALSE(TraceRecorder::enabled());
  {
    TraceSpan span("test", "noop");
    EXPECT_FALSE(span.active());
    span.arg("key", "value");  // must be a no-op, not a crash
  }
  EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
}

TEST_F(TraceRecorderTest, NestedSpansAreContainedAndOrdered) {
  TraceRecorder::global().enable();
  {
    TraceSpan outer("test", "outer");
    ASSERT_TRUE(outer.active());
    TraceSpan inner("test", "inner");
    ASSERT_TRUE(inner.active());
  }
  TraceRecorder::global().disable();

  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction, so the inner one lands first.
  const TraceEventView& inner = events[0];
  const TraceEventView& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.category, "test");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.startNs, outer.startNs);
  EXPECT_LE(inner.startNs + inner.durNs, outer.startNs + outer.durNs);
}

TEST_F(TraceRecorderTest, ThreadsGetDistinctIds) {
  TraceRecorder::global().enable();
  { TraceSpan span("test", "main-thread"); }
  std::thread worker([] { TraceSpan span("test", "worker-thread"); });
  worker.join();
  TraceRecorder::global().disable();

  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceRecorderTest, ArgsAreAttachedToTheirSpan) {
  TraceRecorder::global().enable();
  {
    TraceSpan span("cache", "transforms");
    ASSERT_TRUE(span.active());
    span.arg("cache", "hit");
  }
  TraceRecorder::global().disable();

  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "cache");
  EXPECT_EQ(events[0].args[0].value, "hit");
}

TEST_F(TraceRecorderTest, InstantEventsHaveNoDuration) {
  TraceRecorder::global().enable();
  TraceRecorder::global().recordInstant("disk", "reject",
                                        {TraceArg{"stage", "timings"}});
  TraceRecorder::global().disable();

  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].durNs, 0u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].value, "timings");
}

TEST_F(TraceRecorderTest, JsonHasChromeTraceShapeAndEscapes) {
  TraceRecorder::global().enable();
  { TraceSpan span("test", std::string("quote\"backslash\\")); }
  TraceRecorder::global().recordInstant("test", "mark");
  TraceRecorder::global().disable();

  const std::string json = TraceRecorder::global().toJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("quote\\\"backslash\\\\"), std::string::npos);
  // ts/dur are microseconds with exactly three decimals.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceRecorderTest, ResetDropsEventsAndReArms) {
  TraceRecorder::global().enable();
  { TraceSpan span("test", "before-reset"); }
  EXPECT_EQ(TraceRecorder::global().eventCount(), 1u);

  TraceRecorder::global().reset();
  EXPECT_FALSE(TraceRecorder::enabled());
  EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);

  // The same threads must be able to record again in the new epoch.
  TraceRecorder::global().enable();
  { TraceSpan span("test", "after-reset"); }
  TraceRecorder::global().disable();
  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after-reset");
}

TEST_F(TraceRecorderTest, WriteFileProducesParseableOutput) {
  TraceRecorder::global().enable();
  { TraceSpan span("test", "filed"); }
  TraceRecorder::global().disable();

  const std::string path = ::testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(TraceRecorder::global().writeFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"filed\""), std::string::npos);

  EXPECT_FALSE(TraceRecorder::global().writeFile(
      ::testing::TempDir() + "/no-such-dir/trace.json"));
}

TEST(TraceMetricsTest, CountersAreMonotonicWithStableReferences) {
  MetricCounter& counter =
      MetricsRegistry::global().counter("trace_test.counter");
  const std::uint64_t before = counter.value();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), before + 42);
  // Same name -> same object, forever.
  EXPECT_EQ(&counter, &MetricsRegistry::global().counter("trace_test.counter"));
}

TEST(TraceMetricsTest, SnapshotIsSortedAndCoversBothKinds) {
  MetricsRegistry::global().counter("trace_test.snap_b").add(5);
  MetricsRegistry::global().counter("trace_test.snap_a").add(1);

  const std::vector<MetricSample> samples =
      MetricsRegistry::global().snapshot();
  ASSERT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name < b.name;
      }));
  std::map<std::string, std::uint64_t> values;
  for (const MetricSample& sample : samples) values[sample.name] = sample.value;
  ASSERT_TRUE(values.count("trace_test.snap_a"));
  ASSERT_TRUE(values.count("trace_test.snap_b"));
  EXPECT_GE(values["trace_test.snap_a"], 1u);
  EXPECT_GE(values["trace_test.snap_b"], 5u);
}

class TraceConcurrencyTest : public TraceRecorderTest {};

TEST_F(TraceConcurrencyTest, OversubscribedRecordingWithLiveExport) {
  // Far more writer threads than cores, each recording spans with args
  // and bumping a shared counter, while a reader repeatedly exports the
  // (growing) buffer set. TSan-sensitive by design.
  constexpr int kThreads = 64;
  constexpr int kSpansPerThread = 50;
  TraceRecorder::global().enable();
  MetricCounter& counter =
      MetricsRegistry::global().counter("trace_test.concurrent");
  const std::uint64_t before = counter.value();

  std::atomic<bool> stopReader{false};
  std::thread reader([&] {
    while (!stopReader.load(std::memory_order_relaxed)) {
      (void)TraceRecorder::global().toJson();
      (void)TraceRecorder::global().eventCount();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &counter] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("stress", "w" + std::to_string(t));
        if (span.active()) span.arg("i", std::to_string(i));
        counter.add();
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stopReader.store(true, std::memory_order_relaxed);
  reader.join();
  TraceRecorder::global().disable();

  EXPECT_EQ(counter.value(), before + kThreads * kSpansPerThread);
  EXPECT_EQ(TraceRecorder::global().eventCount(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);

  // Every writer thread must own a distinct tid and all its spans.
  const std::vector<TraceEventView> events =
      TraceRecorder::global().snapshot();
  std::map<int, int> perTid;
  for (const TraceEventView& ev : events) perTid[ev.tid] += 1;
  EXPECT_EQ(perTid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : perTid) {
    (void)tid;
    EXPECT_EQ(count, kSpansPerThread);
  }
}

}  // namespace
