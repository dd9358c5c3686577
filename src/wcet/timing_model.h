// Per-core timing model derived from the ADL.
//
// Code-level WCET analysis (paper Section II-D) "calculates the isolated
// WCET of code fragments on one core, regardless of the code fragments
// assigned to the other cores. This stage ignores the cost of resource
// contentions" — so shared-memory accesses are priced at their *uncontended*
// cost here; the system-level stage (src/syswcet) adds interference.
#pragma once

#include "adl/platform.h"
#include "ir/cost.h"
#include "ir/function.h"

namespace argo::wcet {

using adl::Cycles;

/// Prices operations and memory accesses for one core of one platform.
class TimingModel {
 public:
  /// `sharedAccessCycles` is the uncontended shared-memory access cost from
  /// this core's tile (Platform::sharedAccessBase).
  TimingModel(const adl::CoreModel& core, Cycles sharedAccessCycles)
      : core_(core), sharedAccessCycles_(sharedAccessCycles) {}

  /// Builds the model for tile `tile` of `platform`.
  [[nodiscard]] static TimingModel forTile(const adl::Platform& platform,
                                           int tile) {
    return TimingModel(platform.tile(tile).core,
                       platform.sharedAccessBase(tile));
  }

  [[nodiscard]] Cycles opCost(ir::OpClass op) const noexcept {
    return core_.cyclesFor(op);
  }

  [[nodiscard]] Cycles accessCost(ir::Storage storage) const noexcept {
    switch (storage) {
      case ir::Storage::Local: return core_.localAccessCycles;
      case ir::Storage::Scratchpad: return core_.spmAccessCycles;
      case ir::Storage::Shared: return sharedAccessCycles_;
    }
    return 0;
  }

 private:
  adl::CoreModel core_;
  Cycles sharedAccessCycles_;
};

}  // namespace argo::wcet
