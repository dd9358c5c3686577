// WCET-directed scratchpad memory (SPM) allocation.
//
// Paper Section III-B: "Scratchpad memories are preferred to caches because
// they enable more precise WCET estimation"; Section III-C cites
// "WCET-directed management of scratchpad memory" as the relevant class of
// sequential optimizations. This pass selects variables to demote from
// Shared to Scratchpad storage so that the total worst-case access saving
// is maximized under the SPM capacity:
//
//   benefit(v) = worstCaseAccesses(v) x (sharedAccessCycles - spmAccessCycles)
//
// solved greedily by benefit density (benefit/bytes) — the standard
// heuristic for the (NP-hard) knapsack formulation.
//
// Eligibility is deliberately conservative so the later mapping stays
// correct on any schedule:
//   * read-only data (Const role, or never-written variables) can be
//     replicated into every tile's SPM; always eligible;
//   * written variables are eligible only when every access occurs within a
//     single top-level statement (a single HTG node), which a static
//     schedule pins to one tile;
//   * Input and Output variables stay in shared memory (they are the
//     external interface).
#pragma once

#include <map>

#include "transform/pass.h"

namespace argo::transform {

/// Result of one allocation run, for reporting and the E5 benchmark.
struct SpmReport {
  std::vector<std::string> demoted;
  std::int64_t bytesUsed = 0;
  /// Static estimate of saved worst-case cycles per step.
  std::int64_t estimatedSaving = 0;
};

class ScratchpadAllocation final : public Pass {
 public:
  /// `capacityBytes`: SPM budget (per tile). `sharedCost`/`spmCost`: access
  /// cycle costs used to weigh benefits.
  ScratchpadAllocation(std::int64_t capacityBytes, std::int64_t sharedCost,
                       std::int64_t spmCost)
      : capacityBytes_(capacityBytes),
        sharedCost_(sharedCost),
        spmCost_(spmCost) {}

  [[nodiscard]] std::string name() const override { return "spm_alloc"; }
  bool run(ir::Function& fn) override;

  [[nodiscard]] const SpmReport& report() const noexcept { return report_; }

 private:
  std::int64_t capacityBytes_;
  std::int64_t sharedCost_;
  std::int64_t spmCost_;
  SpmReport report_;
};

/// Worst-case access counts per variable: every access weighted by the
/// product of enclosing loop trip counts (conditional accesses counted on
/// both arms' worst case). Exposed for tests and the allocator. Throws
/// support::ToolchainError when a count exceeds int64.
[[nodiscard]] std::map<std::string, std::int64_t> worstCaseAccessCounts(
    const ir::Function& fn);

}  // namespace argo::transform
