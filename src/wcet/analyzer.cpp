#include "wcet/analyzer.h"

#include <algorithm>
#include <limits>

#include "support/diagnostics.h"

namespace argo::wcet {

using ir::OpClass;
using support::ToolchainError;

namespace {

/// `a op b` (Add or Mul) through ir::checkedIntOp. Both engines sum and
/// multiply through it, so they agree on which bounds leave int64.
std::int64_t checkedCount(ir::BinOpKind op, std::int64_t a, std::int64_t b) {
  if (const auto value = ir::checkedIntOp(op, a, b)) return *value;
  throw ToolchainError("code-level WCET: bound exceeds int64");
}

void chargeOp(WcetResult& r, OpClass op, const TimingModel& model) {
  r += {model.opCost(op), 0};
}

/// Operand kinds (int vs float) are not tracked by the analyzer, but the
/// interpreter meters the class the run-time operands actually have. To
/// keep the bound sound regardless, charge the dearer of the two classes
/// the operator can map to.
void chargeOpEither(WcetResult& r, OpClass intClass, OpClass floatClass,
                    const TimingModel& model) {
  r += {std::max(model.opCost(intClass), model.opCost(floatClass)), 0};
}

void chargeAccess(WcetResult& r, ir::Storage storage,
                  const TimingModel& model) {
  r += {model.accessCost(storage), storage == ir::Storage::Shared ? 1 : 0};
}

}  // namespace

WcetResult& WcetResult::operator+=(const WcetResult& other) {
  cycles = checkedCount(ir::BinOpKind::Add, cycles, other.cycles);
  sharedAccesses =
      checkedCount(ir::BinOpKind::Add, sharedAccesses, other.sharedAccesses);
  return *this;
}

WcetResult& WcetResult::operator*=(std::int64_t factor) {
  cycles = checkedCount(ir::BinOpKind::Mul, cycles, factor);
  sharedAccesses = checkedCount(ir::BinOpKind::Mul, sharedAccesses, factor);
  return *this;
}

WcetResult WcetResult::max(const WcetResult& a, const WcetResult& b) noexcept {
  return {std::max(a.cycles, b.cycles),
          std::max(a.sharedAccesses, b.sharedAccesses)};
}

WcetResult SchemaAnalyzer::analyzeRef(const ir::VarRef& ref) const {
  WcetResult r;
  const ir::VarDecl* decl = fn_.find(ref.name());
  if (decl == nullptr) {
    // Loop variable: register access, no memory traffic (mirrors the
    // interpreter, which meters nothing for loop-variable reads).
    return r;
  }
  // Index evaluation + flattening arithmetic, mirroring
  // Evaluator::flatIndex exactly.
  const std::size_t rank = ref.indices().size();
  for (std::size_t d = 0; d < rank; ++d) {
    r += analyzeExpr(*ref.indices()[d]);
    if (d != 0) chargeOp(r, OpClass::IntMul, model_);
    if (rank > 1) chargeOp(r, OpClass::IntAlu, model_);
  }
  chargeAccess(r, decl->storage, model_);
  return r;
}

WcetResult SchemaAnalyzer::analyzeExpr(const ir::Expr& expr) const {
  WcetResult r;
  switch (expr.kind()) {
    case ir::ExprKind::IntLit:
    case ir::ExprKind::FloatLit:
    case ir::ExprKind::BoolLit:
      break;
    case ir::ExprKind::VarRef:
      r += analyzeRef(ir::cast<ir::VarRef>(expr));
      break;
    case ir::ExprKind::BinOp: {
      const auto& bin = ir::cast<ir::BinOp>(expr);
      // Worst case: both operands evaluated (short-circuiting only ever
      // skips work at run time).
      r += analyzeExpr(bin.lhs());
      r += analyzeExpr(bin.rhs());
      // Operand "floatness" is unknown without full type inference here;
      // assume float for arithmetic (the conservative, higher-cost class)
      // unless the operator is purely logical.
      if (ir::isLogical(bin.op())) {
        chargeOp(r, OpClass::IntAlu, model_);
      } else {
        chargeOpEither(r, ir::classifyBinOp(bin.op(), /*floatOperands=*/false),
                       ir::classifyBinOp(bin.op(), /*floatOperands=*/true),
                       model_);
      }
      break;
    }
    case ir::ExprKind::UnOp: {
      const auto& un = ir::cast<ir::UnOp>(expr);
      r += analyzeExpr(un.operand());
      chargeOpEither(r, ir::classifyUnOp(un.op(), /*floatOperand=*/false),
                     ir::classifyUnOp(un.op(), /*floatOperand=*/true), model_);
      break;
    }
    case ir::ExprKind::Call: {
      const auto& call = ir::cast<ir::Call>(expr);
      for (const ir::ExprPtr& a : call.args()) r += analyzeExpr(*a);
      chargeOp(r, OpClass::MathFunc, model_);
      break;
    }
    case ir::ExprKind::Select: {
      const auto& sel = ir::cast<ir::Select>(expr);
      r += analyzeExpr(sel.cond());
      chargeOp(r, OpClass::Select, model_);
      r += WcetResult::max(analyzeExpr(sel.onTrue()),
                           analyzeExpr(sel.onFalse()));
      break;
    }
  }
  return r;
}

WcetResult SchemaAnalyzer::analyzeStmt(const ir::Stmt& stmt) const {
  WcetResult r;
  switch (stmt.kind()) {
    case ir::StmtKind::Assign: {
      const auto& assign = ir::cast<ir::Assign>(stmt);
      r += analyzeExpr(assign.rhs());
      r += analyzeRef(assign.lhs());
      break;
    }
    case ir::StmtKind::For: {
      const auto& loop = ir::cast<ir::For>(stmt);
      const std::int64_t trip = loop.tripCount();
      if (trip > 0) {
        WcetResult iteration = analyzeBlock(loop.body());
        chargeOp(iteration, OpClass::LoopStep, model_);
        iteration *= trip;
        r += iteration;
      }
      chargeOp(r, OpClass::Branch, model_);  // final exit test
      break;
    }
    case ir::StmtKind::If: {
      const auto& branch = ir::cast<ir::If>(stmt);
      r += analyzeExpr(branch.cond());
      chargeOp(r, OpClass::Branch, model_);
      r += WcetResult::max(analyzeBlock(branch.thenBody()),
                           analyzeBlock(branch.elseBody()));
      break;
    }
    case ir::StmtKind::Block:
      r += analyzeBlock(ir::cast<ir::Block>(stmt));
      break;
  }
  return r;
}

WcetResult SchemaAnalyzer::analyzeBlock(const ir::Block& block) const {
  WcetResult r;
  for (const ir::StmtPtr& s : block.stmts()) r += analyzeStmt(*s);
  return r;
}

// ------------------------------------------------------------- CfgAnalyzer

Cycles CfgAnalyzer::nodeCost(const ir::CfgNode& node) const {
  SchemaAnalyzer schema(fn_, model_);
  switch (node.kind) {
    case ir::CfgNodeKind::Entry:
    case ir::CfgNodeKind::Exit:
    case ir::CfgNodeKind::Join:
      return 0;
    case ir::CfgNodeKind::Basic: {
      Cycles total = 0;
      for (const ir::Assign* assign : node.assigns) {
        total = checkedCount(ir::BinOpKind::Add, total,
                             schema.analyzeStmt(*assign).cycles);
      }
      return total;
    }
    case ir::CfgNodeKind::Branch:
      return checkedCount(ir::BinOpKind::Add,
                          schema.analyzeExpr(*node.cond).cycles,
                          model_.opCost(OpClass::Branch));
    case ir::CfgNodeKind::Loop: {
      const std::int64_t trip = node.loop->tripCount();
      Cycles total = model_.opCost(OpClass::Branch);
      if (trip > 0) {
        const Cycles iteration =
            checkedCount(ir::BinOpKind::Add, longestPath(*node.body),
                         model_.opCost(OpClass::LoopStep));
        total = checkedCount(ir::BinOpKind::Add, total,
                             checkedCount(ir::BinOpKind::Mul, trip, iteration));
      }
      return total;
    }
  }
  return 0;
}

Cycles CfgAnalyzer::longestPath(const ir::Cfg& cfg) const {
  const std::vector<int> order = cfg.topoOrder();
  std::vector<Cycles> dist(cfg.nodes().size(),
                           std::numeric_limits<Cycles>::min());
  dist[static_cast<std::size_t>(cfg.entry())] = 0;
  for (int id : order) {
    const Cycles here = dist[static_cast<std::size_t>(id)];
    if (here == std::numeric_limits<Cycles>::min()) continue;
    const Cycles total =
        checkedCount(ir::BinOpKind::Add, here, nodeCost(cfg.node(id)));
    for (int s : cfg.node(id).succs) {
      dist[static_cast<std::size_t>(s)] =
          std::max(dist[static_cast<std::size_t>(s)], total);
    }
  }
  const Cycles result = dist[static_cast<std::size_t>(cfg.exit())];
  if (result == std::numeric_limits<Cycles>::min()) {
    throw ToolchainError("CFG exit unreachable (internal error)");
  }
  return result;
}

Cycles CfgAnalyzer::analyzeBlock(const ir::Block& block) const {
  const std::unique_ptr<ir::Cfg> cfg = ir::Cfg::build(block);
  return longestPath(*cfg);
}

}  // namespace argo::wcet
