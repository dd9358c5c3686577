#include "core/cache.h"

namespace argo::core {

using support::ByteReader;
using support::ByteWriter;

ToolchainCacheStats ToolchainCache::stats() const noexcept {
  ToolchainCacheStats s;
  s.transforms = transforms.stats();
  s.sequentialWcet = sequentialWcet.stats();
  s.expansion = expansion.stats();
  s.timings = timings.stats();
  s.schedules = schedules.stats();
  if (disk_ != nullptr) s.disk = disk_->stats();
  return s;
}

std::string encodeCycles(adl::Cycles value) {
  ByteWriter w;
  w.i64(value);
  return w.take();
}

std::optional<adl::Cycles> decodeCycles(std::string_view payload) {
  ByteReader r(payload);
  const adl::Cycles value = r.i64();
  if (!r.atEnd()) return std::nullopt;
  return value;
}

std::string encodeTimings(const std::vector<sched::TaskTiming>& timings) {
  ByteWriter w;
  w.u64(timings.size());
  for (const sched::TaskTiming& t : timings) {
    w.u64(t.wcetByTile.size());
    for (adl::Cycles c : t.wcetByTile) w.i64(c);
    w.i64(t.sharedAccesses);
  }
  return w.take();
}

std::optional<std::vector<sched::TaskTiming>> decodeTimings(
    std::string_view payload) {
  ByteReader r(payload);
  const std::size_t n = r.count();
  std::vector<sched::TaskTiming> timings;
  timings.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    sched::TaskTiming t;
    const std::size_t tiles = r.count();
    t.wcetByTile.reserve(tiles);
    for (std::size_t j = 0; j < tiles && r.ok(); ++j) {
      t.wcetByTile.push_back(r.i64());
    }
    t.sharedAccesses = r.i64();
    timings.push_back(std::move(t));
  }
  if (!r.atEnd()) return std::nullopt;
  return timings;
}

std::string encodeScheduleStage(const ScheduleStage& stage) {
  ByteWriter w;
  w.u64(stage.schedule.placements.size());
  for (const sched::Placement& p : stage.schedule.placements) {
    w.i32(p.task);
    w.i32(p.tile);
    w.i64(p.start);
    w.i64(p.finish);
  }
  w.u64(stage.schedule.tileOrder.size());
  for (const std::vector<int>& order : stage.schedule.tileOrder) {
    w.u64(order.size());
    for (int task : order) w.i32(task);
  }
  w.i64(stage.schedule.makespan);
  w.i32(stage.schedule.tilesUsed);
  w.str(stage.schedule.policy);

  w.i64(stage.system.makespan);
  w.u64(stage.system.tasks.size());
  for (const syswcet::TaskBound& b : stage.system.tasks) {
    w.i64(b.start);
    w.i64(b.finish);
    w.i64(b.inflated);
    w.i64(b.interference);
    w.i32(b.contenders);
  }
  return w.take();
}

std::optional<ScheduleStage> decodeScheduleStage(std::string_view payload) {
  ByteReader r(payload);
  ScheduleStage stage;
  const std::size_t placements = r.count();
  stage.schedule.placements.reserve(placements);
  for (std::size_t i = 0; i < placements && r.ok(); ++i) {
    sched::Placement p;
    p.task = r.i32();
    p.tile = r.i32();
    p.start = r.i64();
    p.finish = r.i64();
    stage.schedule.placements.push_back(p);
  }
  const std::size_t tiles = r.count();
  stage.schedule.tileOrder.reserve(tiles);
  for (std::size_t i = 0; i < tiles && r.ok(); ++i) {
    const std::size_t n = r.count();
    std::vector<int> order;
    order.reserve(n);
    for (std::size_t j = 0; j < n && r.ok(); ++j) order.push_back(r.i32());
    stage.schedule.tileOrder.push_back(std::move(order));
  }
  stage.schedule.makespan = r.i64();
  stage.schedule.tilesUsed = r.i32();
  stage.schedule.policy = r.str();

  stage.system.makespan = r.i64();
  const std::size_t bounds = r.count();
  stage.system.tasks.reserve(bounds);
  for (std::size_t i = 0; i < bounds && r.ok(); ++i) {
    syswcet::TaskBound b;
    b.start = r.i64();
    b.finish = r.i64();
    b.inflated = r.i64();
    b.interference = r.i64();
    b.contenders = r.i32();
    stage.system.tasks.push_back(b);
  }
  if (!r.atEnd()) return std::nullopt;
  return stage;
}

std::string transformPlatformSlice(const adl::Platform& platform) {
  const adl::CoreModel& core = platform.tile(0).core;
  std::string out = "spmBytes=" + std::to_string(core.spmBytes);
  out += " spmAccess=" + std::to_string(core.spmAccessCycles);
  out += " sharedBase=" + std::to_string(platform.sharedAccessBase(0));
  return out;
}

std::string tileTimingSlice(const adl::Platform& platform, int tile) {
  const adl::CoreModel& core = platform.tile(tile).core;
  std::string out = "ops[";
  for (std::size_t i = 0; i < core.opCycles.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(core.opCycles[i]);
  }
  out += "] local=" + std::to_string(core.localAccessCycles);
  out += " spm=" + std::to_string(core.spmAccessCycles);
  out += " sharedBase=" + std::to_string(platform.sharedAccessBase(tile));
  return out;
}

std::string timingPlatformSlice(const adl::Platform& platform) {
  std::string out;
  for (int t = 0; t < platform.coreCount(); ++t) {
    out += "tile " + std::to_string(t) + " " + tileTimingSlice(platform, t);
    out += '\n';
  }
  return out;
}

support::StageKey transformsKey(std::string_view modelIrText,
                                const adl::Platform& platform,
                                bool runTransforms, bool spmAllocation) {
  support::Hasher h;
  h.str("transforms").str(modelIrText);
  h.boolean(runTransforms).boolean(spmAllocation);
  // The SPM slice only matters when the allocation pass runs, but keying
  // it unconditionally costs at most a spurious miss, never a wrong hit.
  h.str(transformPlatformSlice(platform));
  return h.finish();
}

support::StageKey sequentialWcetKey(const support::StageKey& transformedIr,
                                    const adl::Platform& platform) {
  support::Hasher h;
  h.str("seqwcet").key(transformedIr).str(tileTimingSlice(platform, 0));
  return h.finish();
}

support::StageKey expansionKey(const support::StageKey& transformedIr,
                               int chunksPerLoop, bool mergeScalarChains) {
  support::Hasher h;
  h.str("expand").key(transformedIr);
  h.i32(chunksPerLoop).boolean(mergeScalarChains);
  return h.finish();
}

support::StageKey timingsKey(const support::StageKey& expansion,
                             const adl::Platform& platform) {
  support::Hasher h;
  h.str("timings").key(expansion).str(timingPlatformSlice(platform));
  return h.finish();
}

support::StageKey scheduleKey(const support::StageKey& timings,
                              const adl::Platform& platform,
                              const sched::SchedOptions& options,
                              syswcet::InterferenceMethod method) {
  support::Hasher h;
  h.str("schedule").key(timings).str(platform.canonicalText());
  h.str(options.policy);
  h.boolean(options.interferenceAware);
  h.i32(options.coreLimit);
  h.i64(options.bnbNodeBudget);
  h.i32(options.saIterations);
  h.u64(options.seed);
  // options.parallelThreads is deliberately NOT keyed: nothing reads it.
  h.i32(static_cast<std::int32_t>(method));
  return h.finish();
}

}  // namespace argo::core
