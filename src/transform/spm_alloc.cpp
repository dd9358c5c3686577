#include "transform/spm_alloc.h"

#include <algorithm>
#include <map>

#include "ir/dependence.h"

namespace argo::transform {

namespace {

/// `a op b` through ir::checkedIntOp; a trip-weighted count or a benefit
/// beyond int64 is an error, never a wrapped value.
std::int64_t checkedCount(ir::BinOpKind op, std::int64_t a, std::int64_t b) {
  if (const auto value = ir::checkedIntOp(op, a, b)) return *value;
  throw support::ToolchainError(
      "spm_alloc: worst-case access count or benefit exceeds int64");
}

void addCount(std::map<std::string, std::int64_t>& counts,
              const std::string& name, std::int64_t weight) {
  std::int64_t& slot = counts[name];
  slot = checkedCount(ir::BinOpKind::Add, slot, weight);
}

void countExpr(const ir::Expr& expr, std::int64_t weight,
               std::map<std::string, std::int64_t>& counts) {
  switch (expr.kind()) {
    case ir::ExprKind::VarRef: {
      const auto& ref = ir::cast<ir::VarRef>(expr);
      addCount(counts, ref.name(), weight);
      for (const ir::ExprPtr& idx : ref.indices()) {
        countExpr(*idx, weight, counts);
      }
      break;
    }
    case ir::ExprKind::BinOp: {
      const auto& bin = ir::cast<ir::BinOp>(expr);
      countExpr(bin.lhs(), weight, counts);
      countExpr(bin.rhs(), weight, counts);
      break;
    }
    case ir::ExprKind::UnOp:
      countExpr(ir::cast<ir::UnOp>(expr).operand(), weight, counts);
      break;
    case ir::ExprKind::Call:
      for (const ir::ExprPtr& a : ir::cast<ir::Call>(expr).args()) {
        countExpr(*a, weight, counts);
      }
      break;
    case ir::ExprKind::Select: {
      const auto& sel = ir::cast<ir::Select>(expr);
      countExpr(sel.cond(), weight, counts);
      // Worst case: either arm may execute; count both (sound upper bound).
      countExpr(sel.onTrue(), weight, counts);
      countExpr(sel.onFalse(), weight, counts);
      break;
    }
    default:
      break;
  }
}

void countStmt(const ir::Stmt& stmt, std::int64_t weight,
               std::map<std::string, std::int64_t>& counts) {
  switch (stmt.kind()) {
    case ir::StmtKind::Assign: {
      const auto& assign = ir::cast<ir::Assign>(stmt);
      countExpr(assign.rhs(), weight, counts);
      addCount(counts, assign.lhs().name(), weight);
      for (const ir::ExprPtr& idx : assign.lhs().indices()) {
        countExpr(*idx, weight, counts);
      }
      break;
    }
    case ir::StmtKind::For: {
      const auto& loop = ir::cast<ir::For>(stmt);
      const std::int64_t trips = loop.tripCount();
      if (trips > 0) {
        for (const ir::StmtPtr& s : loop.body().stmts()) {
          countStmt(*s, checkedCount(ir::BinOpKind::Mul, weight, trips),
                    counts);
        }
      }
      break;
    }
    case ir::StmtKind::If: {
      const auto& branch = ir::cast<ir::If>(stmt);
      countExpr(branch.cond(), weight, counts);
      for (const ir::StmtPtr& s : branch.thenBody().stmts()) {
        countStmt(*s, weight, counts);
      }
      for (const ir::StmtPtr& s : branch.elseBody().stmts()) {
        countStmt(*s, weight, counts);
      }
      break;
    }
    case ir::StmtKind::Block:
      for (const ir::StmtPtr& s : ir::cast<ir::Block>(stmt).stmts()) {
        countStmt(*s, weight, counts);
      }
      break;
  }
}

}  // namespace

std::map<std::string, std::int64_t> worstCaseAccessCounts(
    const ir::Function& fn) {
  std::map<std::string, std::int64_t> counts;
  for (const ir::StmtPtr& s : fn.body().stmts()) countStmt(*s, 1, counts);
  // Loop variables accumulate counts too; drop names that are not declared.
  for (auto it = counts.begin(); it != counts.end();) {
    if (fn.find(it->first) == nullptr) {
      it = counts.erase(it);
    } else {
      ++it;
    }
  }
  return counts;
}

bool ScratchpadAllocation::run(ir::Function& fn) {
  report_ = SpmReport{};
  const std::int64_t gain = sharedCost_ - spmCost_;
  if (gain <= 0 || capacityBytes_ <= 0) return false;

  const std::map<std::string, std::int64_t> counts = worstCaseAccessCounts(fn);

  // Which top-level statements touch each variable (single-node test).
  std::map<std::string, int> touchingNodes;
  std::map<std::string, bool> everWritten;
  for (const ir::StmtPtr& s : fn.body().stmts()) {
    const ir::VarUsage usage = ir::collectUsage(*s);
    std::set<std::string> touched = usage.reads;
    touched.insert(usage.writes.begin(), usage.writes.end());
    for (const std::string& v : touched) touchingNodes[v] += 1;
    for (const std::string& v : usage.writes) everWritten[v] = true;
  }

  struct Candidate {
    const ir::VarDecl* decl;
    std::int64_t benefit;
    std::int64_t bytes;
  };
  std::vector<Candidate> candidates;
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.storage != ir::Storage::Shared) continue;
    if (decl.role == ir::VarRole::Input || decl.role == ir::VarRole::Output) {
      continue;  // external interface stays shared
    }
    const bool readOnly =
        decl.role == ir::VarRole::Const || !everWritten[decl.name];
    const bool singleNode = touchingNodes[decl.name] <= 1;
    if (!readOnly && !singleNode) continue;
    auto it = counts.find(decl.name);
    const std::int64_t accesses = it == counts.end() ? 0 : it->second;
    if (accesses == 0) continue;
    candidates.push_back(
        Candidate{&decl, checkedCount(ir::BinOpKind::Mul, accesses, gain),
                  decl.type.byteSize()});
  }

  // Greedy by benefit density, deterministic tie-break by name.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const double da = static_cast<double>(a.benefit) /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, a.bytes));
              const double db = static_cast<double>(b.benefit) /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, b.bytes));
              if (da != db) return da > db;
              return a.decl->name < b.decl->name;
            });

  std::int64_t remaining = capacityBytes_;
  std::vector<std::string> selected;
  for (const Candidate& c : candidates) {
    if (c.bytes > remaining) continue;
    remaining -= c.bytes;
    selected.push_back(c.decl->name);
    report_.bytesUsed += c.bytes;
    report_.estimatedSaving =
        checkedCount(ir::BinOpKind::Add, report_.estimatedSaving, c.benefit);
  }
  if (selected.empty()) return false;

  for (const std::string& name : selected) {
    fn.find(name)->storage = ir::Storage::Scratchpad;
    report_.demoted.push_back(name);
  }
  return true;
}

}  // namespace argo::transform
