// Fault-injection suite for the on-disk stage-cache tier
// (support/disk_cache.h + the core/cache.h stage codecs).
//
// The disk tier's contract is: a cache directory in ANY state — valid,
// truncated, bit-flipped, version-skewed, cross-copied between key slots,
// or full of stale tmp files — can cost recomputes, never correctness.
// Every adversarial corpus below must therefore load as a counted reject
// (or a plain miss) and fall through to recompute; a crash or a
// wrong-value load is a failure of the whole design.
//
// Suite names contain "DiskCache" on purpose: the CI TSan job selects
// concurrency-relevant suites by that regex.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cache.h"
#include "diamond_fixture.h"
#include "htg/htg.h"
#include "support/disk_cache.h"
#include "support/hash.h"

namespace fs = std::filesystem;

namespace argo {
namespace {

fs::path makeTempDir(const std::string& tag) {
  std::string templ =
      (fs::temp_directory_path() / ("argo_disk_" + tag + "_XXXXXX")).string();
  if (mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + templ);
  }
  return fs::path(templ);
}

/// RAII temp dir so every test leaves /tmp clean even on failure.
struct TempDir {
  explicit TempDir(const std::string& tag) : path(makeTempDir(tag)) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

std::string readFileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const fs::path& p, std::string_view bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << p;
}

support::StageKey keyOf(std::uint64_t hi, std::uint64_t lo) {
  support::StageKey k;
  k.hi = hi;
  k.lo = lo;
  return k;
}

// A payload with embedded NUL and high bytes — the codec must be 8-bit
// clean, records are binary.
const std::string kPayload = std::string("pay\0load\xff\x01", 10);

// ---- ByteWriter / ByteReader ---------------------------------------------

TEST(DiskCacheByteCodec, RoundTripsEveryFieldType) {
  support::ByteWriter w;
  w.u64(0xdeadbeefcafe1234ull)
      .i64(-42)
      .i32(-7)
      .str(kPayload)
      .key(keyOf(0x1111, 0x2222));
  const std::string bytes = w.take();

  support::ByteReader r(bytes);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafe1234ull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.str(), kPayload);
  EXPECT_EQ(r.stageKey(), keyOf(0x1111, 0x2222));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(DiskCacheByteCodec, TruncationAtEveryBoundaryIsStickyFailure) {
  support::ByteWriter w;
  w.u64(1).str("abc").key(keyOf(9, 9)).i32(5);
  const std::string bytes = w.take();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    support::ByteReader r(std::string_view(bytes).substr(0, len));
    // The full read sequence must never crash, and the one end-of-payload
    // check must flag every truncation point.
    (void)r.u64();
    (void)r.str();
    (void)r.stageKey();
    (void)r.i32();
    EXPECT_FALSE(r.ok() && r.atEnd()) << "prefix length " << len;
    // Sticky: once failed, later reads yield zero values, not garbage.
    if (!r.ok()) {
      EXPECT_EQ(r.u64(), 0u) << "prefix length " << len;
      EXPECT_EQ(r.str(), "") << "prefix length " << len;
    }
  }
}

TEST(DiskCacheByteCodec, WrongTagFailsTheStream) {
  support::ByteWriter w;
  w.u64(7);
  support::ByteReader r(w.bytes());
  EXPECT_EQ(r.i64(), 0);  // 'I' expected, 'U' present.
  EXPECT_FALSE(r.ok());
}

TEST(DiskCacheByteCodec, I32RangeIsChecked) {
  support::ByteWriter w;
  w.i64(static_cast<std::int64_t>(INT32_MAX) + 1);
  std::string bytes = w.take();
  bytes[0] = 'W';  // Reframe the out-of-range wide value as an i32 field.
  support::ByteReader r(bytes);
  EXPECT_EQ(r.i32(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(DiskCacheByteCodec, StringLengthBeyondBufferFails) {
  support::ByteWriter w;
  w.str("abc");
  std::string bytes = w.take();
  bytes[8] = '\x7f';  // Top length byte: claims an absurd string size.
  support::ByteReader r(bytes);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(DiskCacheByteCodec, CountGuardsAbsurdSequenceLengths) {
  support::ByteWriter w;
  w.u64(std::uint64_t{1} << 60);
  support::ByteReader r(w.bytes());
  EXPECT_EQ(r.count(), 0u);  // Cannot possibly fit the remaining 0 bytes.
  EXPECT_FALSE(r.ok());
}

// ---- DiskCache store/load ------------------------------------------------

TEST(DiskCacheStore, StoreThenLoadRoundTripsBinaryPayloads) {
  TempDir dir("roundtrip");
  support::DiskCache cache(dir.path.string());
  const support::StageKey key = keyOf(0xabc, 0xdef);

  cache.store("timings", key, kPayload);
  const std::optional<std::string> loaded = cache.load("timings", key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, kPayload);

  const support::DiskCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_EQ(stats.storeFailures, 0u);
}

TEST(DiskCacheStore, LoadOnEmptyDirectoryIsAMiss) {
  TempDir dir("miss");
  support::DiskCache cache(dir.path.string());
  EXPECT_FALSE(cache.load("timings", keyOf(1, 2)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().rejects, 0u);
}

TEST(DiskCacheStore, RecordPathFollowsTheDocumentedLayout) {
  TempDir dir("layout");
  support::DiskCache cache(dir.path.string());
  const support::StageKey key = keyOf(0x0123456789abcdefull, 0xfedcba9876543210ull);
  const std::string expected =
      (dir.path / "schedule" / (key.text() + ".rec")).string();
  EXPECT_EQ(cache.recordPath("schedule", key), expected);
  cache.store("schedule", key, "x");
  EXPECT_TRUE(fs::exists(expected));
}

TEST(DiskCacheStore, StoreLeavesNoTmpFilesBehind) {
  TempDir dir("tmpclean");
  support::DiskCache cache(dir.path.string());
  cache.store("expand", keyOf(3, 4), kPayload);
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(DiskCacheStore, LastStoreWins) {
  TempDir dir("overwrite");
  support::DiskCache cache(dir.path.string());
  const support::StageKey key = keyOf(5, 6);
  cache.store("timings", key, "first");
  cache.store("timings", key, "second");
  const std::optional<std::string> loaded = cache.load("timings", key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "second");
}

TEST(DiskCacheStore, UnwritableDirectoryOnlyBumpsStoreFailures) {
  TempDir dir("unwritable");
  // Use a regular FILE as the cache root: create_directories must fail.
  const fs::path fileAsDir = dir.path / "not_a_dir";
  writeFileBytes(fileAsDir, "occupied");
  support::DiskCache cache(fileAsDir.string());
  cache.store("timings", keyOf(7, 8), kPayload);  // Must not throw.
  EXPECT_EQ(cache.stats().storeFailures, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_FALSE(cache.load("timings", keyOf(7, 8)).has_value());
}

// ---- Adversarial record corpus -------------------------------------------

struct FaultFixture {
  TempDir dir{"fault"};
  support::DiskCache cache{dir.path.string()};
  support::StageKey key = keyOf(0x1122334455667788ull, 0x99aabbccddeeff00ull);
  std::string record;  ///< The valid on-disk bytes, harvested after store.

  FaultFixture() {
    cache.store("timings", key, kPayload);
    record = readFileBytes(cache.recordPath("timings", key));
  }
  void plant(std::string_view bytes) {
    writeFileBytes(cache.recordPath("timings", key), bytes);
  }
};

TEST(DiskCacheFaults, TruncationAtEveryByteIsACountedReject) {
  FaultFixture f;
  ASSERT_GT(f.record.size(), 8u);
  std::uint64_t expectedRejects = 0;
  for (std::size_t len = 0; len < f.record.size(); ++len) {
    f.plant(std::string_view(f.record).substr(0, len));
    EXPECT_FALSE(f.cache.load("timings", f.key).has_value())
        << "truncated to " << len << " bytes";
    ++expectedRejects;
    EXPECT_EQ(f.cache.stats().rejects, expectedRejects);
  }
  EXPECT_EQ(f.cache.stats().hits, 0u);
}

TEST(DiskCacheFaults, FlippingAnySingleByteIsACountedReject) {
  FaultFixture f;
  for (std::size_t i = 0; i < f.record.size(); ++i) {
    std::string bad = f.record;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0xff);
    f.plant(bad);
    EXPECT_FALSE(f.cache.load("timings", f.key).has_value())
        << "byte " << i << " flipped";
  }
  EXPECT_EQ(f.cache.stats().rejects, f.record.size());
  // The pristine record still loads — the harness itself is sound.
  f.plant(f.record);
  EXPECT_EQ(f.cache.load("timings", f.key), kPayload);
}

TEST(DiskCacheFaults, WrongFormatVersionIsRejectedBeforeParsing) {
  FaultFixture f;
  // Hand-build a structurally perfect record of a FUTURE format version;
  // the version gate must reject it before the checksum is even checked.
  support::ByteWriter w;
  w.u64(support::kDiskCacheFormatVersion + 1)
      .str("timings")
      .key(f.key)
      .str(kPayload)
      .key(keyOf(0, 0));
  f.plant("ARGOCACH" + w.take());
  EXPECT_FALSE(f.cache.load("timings", f.key).has_value());
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

TEST(DiskCacheFaults, RecordCopiedBetweenKeySlotsIsRejected) {
  FaultFixture f;
  const support::StageKey other = keyOf(0xdead, 0xbeef);
  // A valid record renamed into another key's slot: self-description must
  // catch it (the embedded key disagrees with the requested one).
  writeFileBytes(f.cache.recordPath("timings", other), f.record);
  EXPECT_FALSE(f.cache.load("timings", other).has_value());
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

TEST(DiskCacheFaults, RecordCopiedBetweenStagesIsRejected) {
  FaultFixture f;
  fs::create_directories(f.dir.path / "schedule");
  writeFileBytes(f.cache.recordPath("schedule", f.key), f.record);
  EXPECT_FALSE(f.cache.load("schedule", f.key).has_value());
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

TEST(DiskCacheFaults, ZeroLengthRecordIsRejected) {
  FaultFixture f;
  f.plant("");
  EXPECT_FALSE(f.cache.load("timings", f.key).has_value());
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

TEST(DiskCacheFaults, TrailingGarbageIsRejected) {
  FaultFixture f;
  f.plant(f.record + "junk");
  EXPECT_FALSE(f.cache.load("timings", f.key).has_value());
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

TEST(DiskCacheFaults, StaleTmpFilesAreInert) {
  FaultFixture f;
  // A crashed writer's leftovers: loads must ignore them entirely (they
  // are not .rec paths), and stores must keep working around them.
  const fs::path stage = f.dir.path / "timings";
  writeFileBytes(stage / (f.key.text() + ".rec.12345.7.tmp"), "partial");
  writeFileBytes(stage / "garbage.tmp", "junk");
  EXPECT_EQ(f.cache.load("timings", f.key), kPayload);
  const support::StageKey fresh = keyOf(0xf00, 0xba7);
  f.cache.store("timings", fresh, "new");
  EXPECT_EQ(f.cache.load("timings", fresh), "new");
  EXPECT_EQ(f.cache.stats().rejects, 0u);
}

TEST(DiskCacheFaults, DamagedRecordIsRepairedByTheNextStore) {
  FaultFixture f;
  f.plant("ARGOCACH short");
  EXPECT_FALSE(f.cache.load("timings", f.key).has_value());
  f.cache.store("timings", f.key, kPayload);
  EXPECT_EQ(f.cache.load("timings", f.key), kPayload);
  EXPECT_EQ(f.cache.stats().rejects, 1u);
}

// ---- Stage payload codecs ------------------------------------------------

TEST(DiskCacheStageCodecs, CyclesRoundTrip) {
  for (const adl::Cycles value : {adl::Cycles{0}, adl::Cycles{123456789},
                                  adl::Cycles{-17}}) {
    const std::optional<adl::Cycles> decoded =
        core::decodeCycles(core::encodeCycles(value));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, value);
  }
}

TEST(DiskCacheStageCodecs, TimingsRoundTrip) {
  std::vector<sched::TaskTiming> original(3);
  original[0].wcetByTile = {10, 20, 30};
  original[0].sharedAccesses = 5;
  original[1].wcetByTile = {7};
  original[1].sharedAccesses = 0;
  original[2].wcetByTile = {1, 2, 3, 4, 5, 6, 7, 8};
  original[2].sharedAccesses = 1234567;

  const std::optional<std::vector<sched::TaskTiming>> decoded =
      core::decodeTimings(core::encodeTimings(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(DiskCacheStageCodecs, ScheduleStageRoundTrips) {
  core::ScheduleStage original;
  original.schedule.placements = {{0, 1, 0, 100}, {1, 0, 50, 220}};
  original.schedule.tileOrder = {{1}, {0}, {}};
  original.schedule.makespan = 220;
  original.schedule.tilesUsed = 2;
  original.schedule.policy = "heft";
  original.system.makespan = 240;
  original.system.tasks = {{0, 110, 110, 10, 2}, {55, 240, 185, 15, 2}};

  const std::optional<core::ScheduleStage> decoded =
      core::decodeScheduleStage(core::encodeScheduleStage(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->schedule, original.schedule);
  EXPECT_EQ(decoded->system, original.system);
}

TEST(DiskCacheStageCodecs, EveryTruncatedPayloadDecodesToNullopt) {
  // The decoders are total: every strict prefix of every stage payload
  // must come back nullopt — never a crash, never a partial value.
  std::vector<sched::TaskTiming> timings(2);
  timings[0].wcetByTile = {10, 20};
  timings[1].wcetByTile = {30};
  core::ScheduleStage sched;
  sched.schedule.placements = {{0, 0, 0, 10}};
  sched.schedule.tileOrder = {{0}};
  sched.schedule.policy = "heft";
  sched.system.tasks = {{0, 10, 10, 0, 1}};

  const std::string timingsPayload = core::encodeTimings(timings);
  for (std::size_t len = 0; len < timingsPayload.size(); ++len) {
    EXPECT_FALSE(
        core::decodeTimings(std::string_view(timingsPayload).substr(0, len))
            .has_value())
        << "timings prefix " << len;
  }
  const std::string schedPayload = core::encodeScheduleStage(sched);
  for (std::size_t len = 0; len < schedPayload.size(); ++len) {
    EXPECT_FALSE(core::decodeScheduleStage(
                     std::string_view(schedPayload).substr(0, len))
                     .has_value())
        << "schedule prefix " << len;
  }
  const std::string cyclesPayload = core::encodeCycles(42);
  for (std::size_t len = 0; len < cyclesPayload.size(); ++len) {
    EXPECT_FALSE(
        core::decodeCycles(std::string_view(cyclesPayload).substr(0, len))
            .has_value())
        << "cycles prefix " << len;
  }
}

TEST(DiskCacheStageCodecs, GarbagePayloadsDecodeToNullopt) {
  const std::string garbage = "not a payload \x01\x02\xff";
  EXPECT_FALSE(core::decodeCycles(garbage).has_value());
  EXPECT_FALSE(core::decodeTimings(garbage).has_value());
  EXPECT_FALSE(core::decodeScheduleStage(garbage).has_value());
}

// ---- ToolchainCache tiered integration -----------------------------------

TEST(DiskCacheTiered, SecondCacheInstanceLoadsFromDiskWithoutComputing) {
  TempDir dir("tiered");
  const support::StageKey key = keyOf(0x42, 0x43);
  std::vector<sched::TaskTiming> value(1);
  value[0].wcetByTile = {11, 22};
  value[0].sharedAccesses = 3;

  core::ToolchainCache first;
  first.attachDisk(dir.path.string());
  const auto stored = first.getTimings(key, [&] { return value; });
  EXPECT_EQ(*stored, value);
  EXPECT_EQ(first.stats().disk->stores, 1u);
  EXPECT_EQ(first.stats().disk->misses, 1u);

  // A fresh cache over the same directory models a fresh process: the
  // value must come off disk, the compute closure must never run.
  core::ToolchainCache second;
  second.attachDisk(dir.path.string());
  bool computed = false;
  const auto loaded = second.getTimings(key, [&] {
    computed = true;
    return std::vector<sched::TaskTiming>{};
  });
  EXPECT_FALSE(computed);
  EXPECT_EQ(*loaded, value);
  EXPECT_EQ(second.stats().disk->hits, 1u);
  EXPECT_EQ(second.stats().disk->rejects, 0u);
}

TEST(DiskCacheTiered, IrStagesStayInMemory) {
  TempDir dir("tiered_ir");
  const support::StageKey transformsKey = keyOf(0x77, 0x78);
  const support::StageKey expansionKey = keyOf(0x79, 0x7a);

  // Two fresh caches over one directory model two processes: each must
  // compute both IR stages itself, and neither probes nor fills the disk
  // for them.
  for (int process = 0; process < 2; ++process) {
    core::ToolchainCache cache;
    cache.attachDisk(dir.path.string());
    int computes = 0;
    const auto transformed = cache.getTransforms(transformsKey, [&] {
      ++computes;
      core::TransformsStage stage;
      stage.fn = test::makeDiamondFn();
      return stage;
    });
    const auto expanded = cache.getExpansion(expansionKey, [&] {
      ++computes;
      core::ExpandStage stage;
      stage.source = transformed;
      stage.graph = std::make_unique<const htg::TaskGraph>(
          htg::expand(htg::buildHtg(*transformed->fn), htg::ExpandOptions{}));
      return stage;
    });
    EXPECT_EQ(computes, 2) << "process " << process;
    EXPECT_EQ(expanded->graph->fn, transformed->fn.get());
    const support::DiskCacheStats disk = *cache.stats().disk;
    EXPECT_EQ(disk.hits, 0u) << "process " << process;
    EXPECT_EQ(disk.misses, 0u) << "process " << process;
    EXPECT_EQ(disk.stores, 0u) << "process " << process;
  }
  EXPECT_FALSE(fs::exists(dir.path / core::kDiskStageTransforms));
  EXPECT_FALSE(fs::exists(dir.path / core::kDiskStageExpansion));
}

TEST(DiskCacheTiered, UndecodablePayloadFallsThroughToComputeAndRepairs) {
  TempDir dir("tiered_reject");
  const support::StageKey key = keyOf(0x99, 0x9a);
  std::vector<sched::TaskTiming> value(1);
  value[0].wcetByTile = {5};

  // Plant a record whose ENVELOPE is valid but whose payload the timings
  // decoder refuses — the payload-level reject path (noteReject).
  {
    support::DiskCache raw(dir.path.string());
    raw.store(std::string(core::kDiskStageTimings), key, "garbage payload");
  }

  core::ToolchainCache cache;
  cache.attachDisk(dir.path.string());
  bool computed = false;
  const auto got = cache.getTimings(key, [&] {
    computed = true;
    return value;
  });
  EXPECT_TRUE(computed);
  EXPECT_EQ(*got, value);
  ASSERT_TRUE(cache.stats().disk.has_value());
  EXPECT_EQ(cache.stats().disk->rejects, 1u);

  // The compute's store repaired the slot: a third instance now loads it.
  core::ToolchainCache repaired;
  repaired.attachDisk(dir.path.string());
  bool recomputed = false;
  const auto again = repaired.getTimings(key, [&] {
    recomputed = true;
    return std::vector<sched::TaskTiming>{};
  });
  EXPECT_FALSE(recomputed);
  EXPECT_EQ(*again, value);
  EXPECT_EQ(repaired.stats().disk->rejects, 0u);
}

TEST(DiskCacheTiered, NoDiskTierMeansPureMemoryBehavior) {
  core::ToolchainCache cache;
  EXPECT_EQ(cache.disk(), nullptr);
  EXPECT_FALSE(cache.stats().disk.has_value());
  int computes = 0;
  const support::StageKey key = keyOf(1, 1);
  (void)cache.getSequentialWcet(key, [&] { ++computes; return adl::Cycles{9}; });
  const auto second = cache.getSequentialWcet(key, [&] {
    ++computes;
    return adl::Cycles{0};
  });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*second, 9);
}

// ---- Concurrency (exercised under TSan by the CI sanitizer job) ----------

TEST(DiskCacheConcurrency, ConcurrentWritersAndReadersNeverSeeTornRecords) {
  TempDir dir("concurrent");
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  constexpr int kKeys = 4;

  // Two independent DiskCache instances over ONE directory model two
  // processes racing; each thread alternates between them. Every key has
  // exactly one valid payload (stage values are pure functions of keys),
  // so any load must return either nullopt or exactly that payload.
  support::DiskCache a(dir.path.string());
  support::DiskCache b(dir.path.string());
  auto payloadFor = [](int k) {
    return std::string("payload-") + std::to_string(k) +
           std::string(static_cast<std::size_t>(k + 1) * 64, '\xab');
  };

  std::atomic<int> wrongValues{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      support::DiskCache& mine = (t % 2 == 0) ? a : b;
      support::DiskCache& other = (t % 2 == 0) ? b : a;
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % kKeys;
        const support::StageKey key = keyOf(0x5000, static_cast<std::uint64_t>(k));
        mine.store("timings", key, payloadFor(k));
        const std::optional<std::string> seen = other.load("timings", key);
        if (seen.has_value() && *seen != payloadFor(k)) {
          wrongValues.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrongValues.load(), 0);
  // Rejects would mean a reader saw a torn record — rename publication
  // must make that impossible.
  EXPECT_EQ(a.stats().rejects, 0u);
  EXPECT_EQ(b.stats().rejects, 0u);
}

TEST(DiskCacheConcurrency, TwoTieredCachesSharingOneDirectoryAgree) {
  TempDir dir("concurrent_tiered");
  constexpr int kKeys = 6;
  auto valueFor = [](int k) {
    std::vector<sched::TaskTiming> v(static_cast<std::size_t>(k % 3) + 1);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i].wcetByTile = {static_cast<adl::Cycles>(k * 100 + 1),
                         static_cast<adl::Cycles>(k * 100 + 2)};
      v[i].sharedAccesses = k;
    }
    return v;
  };

  core::ToolchainCache a;
  core::ToolchainCache b;
  a.attachDisk(dir.path.string());
  b.attachDisk(dir.path.string());

  std::atomic<int> mismatches{0};
  auto worker = [&](core::ToolchainCache& cache) {
    for (int round = 0; round < 10; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        const support::StageKey key =
            keyOf(0x6000, static_cast<std::uint64_t>(k));
        const auto got = cache.getTimings(key, [&] { return valueFor(k); });
        if (*got != valueFor(k)) mismatches.fetch_add(1);
      }
    }
  };
  std::thread ta(worker, std::ref(a));
  std::thread tb(worker, std::ref(b));
  ta.join();
  tb.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(a.stats().disk->rejects, 0u);
  EXPECT_EQ(b.stats().disk->rejects, 0u);
}

}  // namespace
}  // namespace argo
