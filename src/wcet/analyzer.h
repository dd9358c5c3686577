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

#include "ir/cfg.h"
#include "wcet/timing_model.h"

namespace argo::wcet {

/// WCET of one code fragment: its uncontended worst-case cycles and the
/// worst-case count of shared-memory accesses the system-level stage
/// prices with the interference penalty. A bound beyond int64 is an error,
/// never a wrapped value.
struct WcetResult {
  Cycles cycles = 0;
  std::int64_t sharedAccesses = 0;

  /// Both throw support::ToolchainError when a count leaves int64.
  WcetResult& operator+=(const WcetResult& other);
  WcetResult& operator*=(std::int64_t factor);
  /// Worst-arm merge: per-count max (sound since the access count only
  /// ever multiplies access *delays* upward in later stages).
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
  [[nodiscard]] WcetResult analyzeRef(const ir::VarRef& ref) const;

  const ir::Function& fn_;
  const TimingModel& model_;
};

/// IPET-style CFG engine (cycles only). Agrees with SchemaAnalyzer on all
/// structured programs.
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
