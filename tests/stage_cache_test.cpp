// The content-hash caching layer: support::Hasher / support::StageCache
// (framing, counters, single-flight under oversubscription) and the
// core:: stage-key derivations (every knob a stage observes flips its
// key; knobs outside a stage's inputs — display names, thread counts —
// do not). The end-to-end suite proves a shared ToolchainCache reuses
// work across runs while staying byte-identical to the uncached path.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adl/platform.h"
#include "core/cache.h"
#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "ir/evaluator.h"
#include "ir/printer.h"
#include "scenarios/generator.h"
#include "sim/simulator.h"
#include "support/hash.h"
#include "support/stage_cache.h"

namespace {

using namespace argo;
using support::Hasher;
using support::StageCache;
using support::StageKey;

TEST(StageCacheHasher, DeterministicAndSensitive) {
  const StageKey a = Hasher().str("alpha").i32(7).boolean(true).finish();
  const StageKey b = Hasher().str("alpha").i32(7).boolean(true).finish();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Hasher().str("alpha").i32(8).boolean(true).finish());
  EXPECT_NE(a, Hasher().str("alpha").i32(7).boolean(false).finish());
  EXPECT_NE(a, Hasher().str("alphb").i32(7).boolean(true).finish());
}

TEST(StageCacheHasher, FramingPreventsAliasing) {
  // Length-prefixed strings: "ab"+"c" must not hash like "a"+"bc".
  EXPECT_NE(Hasher().str("ab").str("c").finish(),
            Hasher().str("a").str("bc").finish());
  // Type tags: the same payload fed as different types hashes apart.
  EXPECT_NE(Hasher().u64(1).finish(), Hasher().i64(1).finish());
  EXPECT_NE(Hasher().i32(0).finish(), Hasher().boolean(false).finish());
}

TEST(StageCacheHasher, ChainedKeysAndText) {
  const StageKey up1 = Hasher().str("up1").finish();
  const StageKey up2 = Hasher().str("up2").finish();
  EXPECT_NE(Hasher().key(up1).finish(), Hasher().key(up2).finish());
  EXPECT_EQ(up1.text().size(), 32u);
  EXPECT_NE(up1.text(), up2.text());
}

TEST(StageCache, HitAndMissCounters) {
  StageCache<int> cache;
  const StageKey k = Hasher().str("k").finish();
  int computes = 0;
  const auto first = cache.getOrCompute(k, [&] { ++computes; return 41; });
  const auto second = cache.getOrCompute(k, [&] { ++computes; return 99; });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*first, 41);
  EXPECT_EQ(first.get(), second.get());  // the shared once-computed slot
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inflightWaits, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StageCache, FailedComputeIsRetriable) {
  StageCache<int> cache;
  const StageKey k = Hasher().str("boom").finish();
  EXPECT_THROW(
      (void)cache.getOrCompute(
          k, []() -> int { throw std::runtime_error("compute failed"); }),
      std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // the failed slot was erased
  const auto value = cache.getOrCompute(k, [] { return 5; });
  EXPECT_EQ(*value, 5);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(StageCacheSingleFlight, OversubscribedMissComputesOnce) {
  // 64 threads race one key on whatever cores the machine has; exactly
  // one may run the compute closure, everyone sees the same slot.
  constexpr int kThreads = 64;
  StageCache<int> cache;
  const StageKey k = Hasher().str("popular").finish();
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        seen[t] = cache.getOrCompute(k, [&] {
          computes.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return 123;
        });
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(computes.load(), 1);
  for (const auto& value : seen) {
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value.get(), seen[0].get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.inflightWaits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(StageCacheSingleFlight, OversubscribedManyKeysStress) {
  constexpr int kThreads = 64;
  constexpr int kKeys = 16;
  constexpr int kIterations = 100;
  StageCache<std::uint64_t> cache;
  std::vector<StageKey> keys;
  std::array<std::atomic<int>, kKeys> computes{};
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(Hasher().str("key").i32(i).finish());
  }
  std::atomic<int> wrongValues{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int it = 0; it < kIterations; ++it) {
          const int i = (t + it) % kKeys;
          const auto value = cache.getOrCompute(keys[i], [&] {
            computes[i].fetch_add(1);
            return static_cast<std::uint64_t>(1000 + i);
          });
          if (*value != static_cast<std::uint64_t>(1000 + i)) {
            wrongValues.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(wrongValues.load(), 0);
  for (int i = 0; i < kKeys; ++i) EXPECT_EQ(computes[i].load(), 1) << i;
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.lookups(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

// ---- Key sensitivity: each knob a stage observes flips its key; knobs
// outside a stage's inputs do not. ----

adl::Platform renamed(const adl::Platform& p, const std::string& name) {
  if (p.isBus()) {
    return adl::Platform(name, p.tiles(), p.bus(), p.sharedMemBytes());
  }
  return adl::Platform(name, p.tiles(), p.noc(), p.sharedMemBytes());
}

TEST(CacheKeys, TransformsKeyObservesItsInputs) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey base = core::transformsKey("ir-a", bus, true, true);
  EXPECT_NE(base, core::transformsKey("ir-b", bus, true, true));
  EXPECT_NE(base, core::transformsKey("ir-a", bus, false, true));
  EXPECT_NE(base, core::transformsKey("ir-a", bus, true, false));
  // The SPM slice feeds the ScratchpadAllocation pass.
  EXPECT_NE(base,
            core::transformsKey("ir-a", bus.withSpmBytes(4096), true, true));
  // A different interconnect changes the uncontended shared access cost.
  EXPECT_NE(base, core::transformsKey("ir-a", adl::makeKitLeon3Inoc(2, 2),
                                      true, true));
}

TEST(CacheKeys, TransformsKeyIgnoresNamesAndUnobservedTiles) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey base = core::transformsKey("ir-a", bus, true, true);
  EXPECT_EQ(base, core::transformsKey("ir-a", renamed(bus, "other"), true,
                                      true));
  // Round-robin bus: tile 0's uncontended slice is identical on a 2-core
  // sibling, so the transforms stage must not distinguish them.
  EXPECT_EQ(base,
            core::transformsKey("ir-a", adl::makeRecoreXentiumBus(2), true,
                                true));
}

TEST(CacheKeys, SequentialWcetKeyObservesTileZeroTimingOnly) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey ir = Hasher().str("ir-a").finish();
  const StageKey base = core::sequentialWcetKey(ir, bus);
  EXPECT_NE(base, core::sequentialWcetKey(Hasher().str("ir-b").finish(), bus));
  // Different core model on tile 0 (Leon3 vs Xentium) flips the key.
  EXPECT_NE(base, core::sequentialWcetKey(ir, adl::makeKitLeon3Inoc(2, 2)));
  // Name and extra round-robin tiles are invisible to tile 0's analysis.
  EXPECT_EQ(base, core::sequentialWcetKey(ir, renamed(bus, "other")));
  EXPECT_EQ(base, core::sequentialWcetKey(ir, adl::makeRecoreXentiumBus(2)));
}

TEST(CacheKeys, ExpansionKeyObservesGranularityKnobs) {
  const StageKey ir = Hasher().str("ir-a").finish();
  const StageKey base = core::expansionKey(ir, 4, true);
  EXPECT_NE(base, core::expansionKey(ir, 2, true));
  EXPECT_NE(base, core::expansionKey(ir, 4, false));
  EXPECT_NE(base, core::expansionKey(Hasher().str("ir-b").finish(), 4, true));
}

TEST(CacheKeys, TimingsKeyObservesEveryTile) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey exp = Hasher().str("expansion").finish();
  const StageKey base = core::timingsKey(exp, bus);
  // Per-task WCETs span all tiles, so the core count matters here even
  // though it did not for the transforms stage.
  EXPECT_NE(base, core::timingsKey(exp, adl::makeRecoreXentiumBus(2)));
  // SPM *capacity* feeds only the ScratchpadAllocation transform; the
  // timing analysis prices access cycles, so capacity must not split it.
  EXPECT_EQ(base, core::timingsKey(exp, bus.withSpmBytes(1 << 20)));
  EXPECT_NE(base,
            core::timingsKey(exp,
                             adl::makeRecoreXentiumBus(4,
                                                       adl::Arbitration::Tdma)));
  EXPECT_EQ(base, core::timingsKey(exp, renamed(bus, "other")));
}

TEST(CacheKeys, ScheduleKeyObservesEveryOptionKnob) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey tim = Hasher().str("timings").finish();
  const sched::SchedOptions base;
  const auto key = [&](const sched::SchedOptions& options,
                       syswcet::InterferenceMethod method =
                           syswcet::InterferenceMethod::MhpRefined) {
    return core::scheduleKey(tim, bus, options, method);
  };
  const StageKey reference = key(base);
  sched::SchedOptions o;

  o = base; o.policy = "annealed";
  EXPECT_NE(reference, key(o));
  o = base; o.interferenceAware = false;
  EXPECT_NE(reference, key(o));
  o = base; o.coreLimit = 1;
  EXPECT_NE(reference, key(o));
  o = base; o.bnbNodeBudget = 1234;
  EXPECT_NE(reference, key(o));
  o = base; o.saIterations = 99;
  EXPECT_NE(reference, key(o));
  o = base; o.seed = 42;
  EXPECT_NE(reference, key(o));
  EXPECT_NE(reference,
            key(base, syswcet::InterferenceMethod::AllContenders));
  EXPECT_NE(reference, core::scheduleKey(tim, adl::makeRecoreXentiumBus(2),
                                         base,
                                         syswcet::InterferenceMethod::MhpRefined));
}

TEST(CacheKeys, ScheduleKeyIgnoresExecutionKnobsAndNames) {
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);
  const StageKey tim = Hasher().str("timings").finish();
  sched::SchedOptions a;
  a.parallelThreads = 1;
  sched::SchedOptions b;
  b.parallelThreads = 8;
  // Nothing reads parallelThreads, so it must never split the cache.
  EXPECT_EQ(core::scheduleKey(tim, bus, a,
                              syswcet::InterferenceMethod::MhpRefined),
            core::scheduleKey(tim, bus, b,
                              syswcet::InterferenceMethod::MhpRefined));
  EXPECT_EQ(core::scheduleKey(tim, bus, a,
                              syswcet::InterferenceMethod::MhpRefined),
            core::scheduleKey(tim, renamed(bus, "other"), a,
                              syswcet::InterferenceMethod::MhpRefined));
}

// ---- End to end: a shared cache reuses work and never changes bytes. ----

core::ToolchainOptions fastToolchainOptions() {
  core::ToolchainOptions options;
  options.chunkCandidates = {1, 2};
  options.sched.saIterations = 200;
  options.sched.bnbNodeBudget = 10'000;
  return options;
}

TEST(StageCacheToolchain, CachedRunMatchesUncachedByteForByte) {
  const scenarios::GeneratorOptions generator;
  const scenarios::Scenario scenario = scenarios::generateScenario(generator, 2);
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  core::ToolchainOptions options = fastToolchainOptions();
  const core::ToolchainResult uncached =
      core::Toolchain(platform, options).run(scenario.model);

  options.cache = std::make_shared<core::ToolchainCache>();
  const core::ToolchainResult cold =
      core::Toolchain(platform, options).run(scenario.model);
  const core::ToolchainResult warm =
      core::Toolchain(platform, options).run(scenario.model);

  EXPECT_EQ(uncached.reportText(false), cold.reportText(false));
  EXPECT_EQ(uncached.reportText(false), warm.reportText(false));
}

TEST(StageCacheToolchain, ResultOutlivesItsCache) {
  // A result shares the winner's stage values instead of cloning them:
  // it must stay fully usable once every cache is gone — the run-private
  // one of a no-cache run, or a shared one dropped by its last owner.
  const scenarios::GeneratorOptions generator;
  const scenarios::Scenario scenario = scenarios::generateScenario(generator, 5);
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  core::ToolchainOptions options = fastToolchainOptions();
  const core::Toolchain noCache(platform, options);
  const core::ToolchainResult uncached = noCache.run(scenario.model);

  options.cache = std::make_shared<core::ToolchainCache>();
  const std::weak_ptr<core::ToolchainCache> watch = options.cache;
  const core::ToolchainResult result =
      core::Toolchain(platform, options).run(scenario.model);
  options.cache.reset();
  ASSERT_TRUE(watch.expired());  // the shared cache is gone

  EXPECT_EQ(uncached.graph->fn, uncached.fn.get());
  EXPECT_EQ(result.graph->fn, result.fn.get());
  EXPECT_EQ(uncached.reportText(false), result.reportText(false));

  // Simulate one step against the bound...
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;
  const sim::Simulator simulator(result.program, platform);
  EXPECT_LE(simulator.step(env).makespan, result.system.makespan);

  // ...and emit C: the sources match the no-cache run's byte for byte.
  codegen::InputTrace trace;
  trace.steps.push_back(ir::makeZeroEnvironment(*result.fn));
  const codegen::Emission emitted = noCache.emitC(result, trace);
  const codegen::Emission reference = noCache.emitC(uncached, trace);
  ASSERT_EQ(emitted.files.size(), reference.files.size());
  for (std::size_t i = 0; i < emitted.files.size(); ++i) {
    EXPECT_EQ(emitted.files[i].name, reference.files[i].name);
    EXPECT_EQ(emitted.files[i].contents, reference.files[i].contents)
        << emitted.files[i].name;
  }
}

TEST(StageCacheToolchain, WarmRerunHitsEveryStage) {
  const scenarios::GeneratorOptions generator;
  const scenarios::Scenario scenario = scenarios::generateScenario(generator, 3);
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  core::ToolchainOptions options = fastToolchainOptions();
  options.cache = std::make_shared<core::ToolchainCache>();
  const core::Toolchain toolchain(platform, options);

  (void)toolchain.run(scenario.model);
  const core::ToolchainCacheStats afterFirst = options.cache->stats();
  (void)toolchain.run(scenario.model);
  const core::ToolchainCacheStats afterSecond = options.cache->stats();

  // The second run computes nothing new in any stage.
  EXPECT_EQ(afterFirst.transforms.misses, afterSecond.transforms.misses);
  EXPECT_EQ(afterFirst.sequentialWcet.misses,
            afterSecond.sequentialWcet.misses);
  EXPECT_EQ(afterFirst.expansion.misses, afterSecond.expansion.misses);
  EXPECT_EQ(afterFirst.timings.misses, afterSecond.timings.misses);
  EXPECT_EQ(afterFirst.schedules.misses, afterSecond.schedules.misses);
  EXPECT_GT(afterSecond.schedules.hits, afterFirst.schedules.hits);
}

// ---- Cross-process key stability ----------------------------------------
// The on-disk cache tier (support/disk_cache.h) shares records between
// processes, machines and CI runs under these keys, so they must never
// drift. These goldens pin the full derivation chain — the IR printer, the
// hasher framing, the platform canonical text, every key function — for
// the diamond fixture on the 4-core bus. An intentional change to any link
// requires re-pinning AND bumping support::kDiskCacheFormatVersion (a
// silent change would poison every shared cache directory).
TEST(CacheKeys, DiamondFixtureKeysArePinnedAcrossProcesses) {
  const std::unique_ptr<ir::Function> fn = test::makeDiamondFn();
  const adl::Platform bus = adl::makeRecoreXentiumBus(4);

  const StageKey transforms =
      core::transformsKey(ir::toString(*fn), bus, true, true);
  const StageKey expansion = core::expansionKey(transforms, 4, true);
  const StageKey timings = core::timingsKey(expansion, bus);
  const StageKey schedule =
      core::scheduleKey(timings, bus, sched::SchedOptions{},
                        syswcet::InterferenceMethod::MhpRefined);

  EXPECT_EQ(transforms.text(), "b470cb8ff2a568bb321234bcd7fce99f");
  EXPECT_EQ(expansion.text(), "2895e54d3f09391e4497aaa043b92dda");
  EXPECT_EQ(timings.text(), "8b5263d026f0e20fec945e56d0f2bafd");
  EXPECT_EQ(schedule.text(), "5e4b736b6c89bbba3b71e13d74ff7b0a");
}

TEST(StageCacheToolchain, WarmSharedStagesPrewarmsThePrefix) {
  const scenarios::GeneratorOptions generator;
  const scenarios::Scenario scenario = scenarios::generateScenario(generator, 4);
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);

  core::ToolchainOptions options = fastToolchainOptions();
  options.cache = std::make_shared<core::ToolchainCache>();
  const core::Toolchain toolchain(platform, options);

  toolchain.warmSharedStages(scenario.model);
  const core::ToolchainCacheStats warmed = options.cache->stats();
  EXPECT_GT(warmed.transforms.misses, 0u);
  EXPECT_GT(warmed.expansion.misses, 0u);
  EXPECT_GT(warmed.timings.misses, 0u);
  EXPECT_EQ(warmed.schedules.lookups(), 0u);  // scheduling is per policy

  (void)toolchain.run(scenario.model);
  const core::ToolchainCacheStats after = options.cache->stats();
  // The run reused the warmed prefix: no new prefix-stage misses.
  EXPECT_EQ(after.transforms.misses, warmed.transforms.misses);
  EXPECT_EQ(after.sequentialWcet.misses, warmed.sequentialWcet.misses);
  EXPECT_EQ(after.expansion.misses, warmed.expansion.misses);
  EXPECT_EQ(after.timings.misses, warmed.timings.misses);
}

}  // namespace
