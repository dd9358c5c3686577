// Code-level WCET analysis.
//
// Two engines over the same timing model:
//
//  * SchemaAnalyzer — timing schema on the structured IR:
//      wcet(s1; s2)      = wcet(s1) + wcet(s2)
//      wcet(if c A B)    = cost(c) + branch + max(wcet(A), wcet(B))
//      wcet(for)         = trip * (loopstep + wcet(body)) + branch
//    Exact for this IR class (structured, constant bounds).
//
//  * CfgAnalyzer — IPET-style longest path on the hierarchical CFG
//    (ir/cfg.h), innermost loops collapsed first. On structured programs
//    the two engines must agree; the test suite uses that as a
//    cross-check of both implementations (what aiT calls "independent
//    verification paths").
//
// Both charge every operation and memory access exactly the way the
// reference interpreter meters them, but over the worst-case path: both
// arms of a conditional contribute max(), short-circuit operators are
// charged as if fully evaluated. This makes the bound sound by
// construction: bound >= any metered execution.
#pragma once

#include <map>

#include "ir/cfg.h"
#include "wcet/timing_model.h"

namespace argo::wcet {

/// Per-storage worst-case access counters.
struct AccessCounts {
  std::int64_t reads[3]{};
  std::int64_t writes[3]{};

  [[nodiscard]] std::int64_t reads_of(ir::Storage s) const noexcept {
    return reads[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int64_t writes_of(ir::Storage s) const noexcept {
    return writes[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int64_t sharedTotal() const noexcept {
    return reads_of(ir::Storage::Shared) + writes_of(ir::Storage::Shared);
  }

  AccessCounts& operator+=(const AccessCounts& other) noexcept;
  AccessCounts& operator*=(std::int64_t factor) noexcept;
  [[nodiscard]] static AccessCounts max(const AccessCounts& a,
                                        const AccessCounts& b) noexcept;
};

/// WCET of one code fragment.
struct WcetResult {
  Cycles cycles = 0;           ///< Total worst-case cycles (uncontended).
  Cycles computeCycles = 0;    ///< Operation cycles.
  Cycles memoryCycles = 0;     ///< Memory access cycles.
  ir::OpCounts ops;            ///< Worst-case operation counts.
  AccessCounts accesses;       ///< Worst-case access counts per storage.

  WcetResult& operator+=(const WcetResult& other) noexcept;
  WcetResult& operator*=(std::int64_t factor) noexcept;
  /// Worst-arm merge: max cycles and per-counter max (sound since counters
  /// only ever multiply access *delays* upward in later stages).
  [[nodiscard]] static WcetResult max(const WcetResult& a,
                                      const WcetResult& b) noexcept;
};

/// Timing-schema engine.
class SchemaAnalyzer {
 public:
  SchemaAnalyzer(const ir::Function& fn, const TimingModel& model)
      : fn_(fn), model_(model) {}

  [[nodiscard]] WcetResult analyzeStmt(const ir::Stmt& stmt) const;
  [[nodiscard]] WcetResult analyzeBlock(const ir::Block& block) const;
  [[nodiscard]] WcetResult analyzeFunction() const {
    return analyzeBlock(fn_.body());
  }
  [[nodiscard]] WcetResult analyzeExpr(const ir::Expr& expr) const;

 private:
  [[nodiscard]] WcetResult analyzeRef(const ir::VarRef& ref,
                                      bool isWrite) const;

  const ir::Function& fn_;
  const TimingModel& model_;
};

/// IPET-style CFG engine (cycles only; counters come from the schema
/// engine). Agrees with SchemaAnalyzer on all structured programs.
class CfgAnalyzer {
 public:
  CfgAnalyzer(const ir::Function& fn, const TimingModel& model)
      : fn_(fn), model_(model) {}

  [[nodiscard]] Cycles analyzeBlock(const ir::Block& block) const;
  [[nodiscard]] Cycles analyzeFunction() const {
    return analyzeBlock(fn_.body());
  }

 private:
  [[nodiscard]] Cycles longestPath(const ir::Cfg& cfg) const;
  [[nodiscard]] Cycles nodeCost(const ir::CfgNode& node) const;

  const ir::Function& fn_;
  const TimingModel& model_;
};

}  // namespace argo::wcet
