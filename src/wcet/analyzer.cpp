#include "wcet/analyzer.h"

#include <algorithm>
#include <limits>

#include "support/diagnostics.h"

namespace argo::wcet {

using ir::OpClass;
using support::ToolchainError;

AccessCounts& AccessCounts::operator+=(const AccessCounts& other) noexcept {
  for (std::size_t i = 0; i < 3; ++i) {
    reads[i] += other.reads[i];
    writes[i] += other.writes[i];
  }
  return *this;
}

AccessCounts& AccessCounts::operator*=(std::int64_t factor) noexcept {
  for (std::size_t i = 0; i < 3; ++i) {
    reads[i] *= factor;
    writes[i] *= factor;
  }
  return *this;
}

AccessCounts AccessCounts::max(const AccessCounts& a,
                               const AccessCounts& b) noexcept {
  AccessCounts out;
  for (std::size_t i = 0; i < 3; ++i) {
    out.reads[i] = std::max(a.reads[i], b.reads[i]);
    out.writes[i] = std::max(a.writes[i], b.writes[i]);
  }
  return out;
}

WcetResult& WcetResult::operator+=(const WcetResult& other) noexcept {
  cycles += other.cycles;
  computeCycles += other.computeCycles;
  memoryCycles += other.memoryCycles;
  ops += other.ops;
  accesses += other.accesses;
  return *this;
}

WcetResult& WcetResult::operator*=(std::int64_t factor) noexcept {
  cycles *= factor;
  computeCycles *= factor;
  memoryCycles *= factor;
  ops *= factor;
  accesses *= factor;
  return *this;
}

WcetResult WcetResult::max(const WcetResult& a, const WcetResult& b) noexcept {
  WcetResult out;
  out.cycles = std::max(a.cycles, b.cycles);
  out.computeCycles = std::max(a.computeCycles, b.computeCycles);
  out.memoryCycles = std::max(a.memoryCycles, b.memoryCycles);
  out.ops = ir::OpCounts::max(a.ops, b.ops);
  out.accesses = AccessCounts::max(a.accesses, b.accesses);
  return out;
}

namespace {

void chargeOp(WcetResult& r, OpClass op, const TimingModel& model) {
  r.ops[op] += 1;
  const Cycles c = model.opCost(op);
  r.computeCycles += c;
  r.cycles += c;
}

/// Operand kinds (int vs float) are not tracked by the analyzer, but the
/// interpreter meters the class the run-time operands actually have. To
/// keep the bound sound regardless, charge the dearer of the two classes
/// the operator can map to (attributed to the float class in the counters).
void chargeOpEither(WcetResult& r, OpClass intClass, OpClass floatClass,
                    const TimingModel& model) {
  const Cycles c = std::max(model.opCost(intClass), model.opCost(floatClass));
  r.ops[floatClass] += 1;
  r.computeCycles += c;
  r.cycles += c;
}

void chargeAccess(WcetResult& r, ir::Storage storage, bool isWrite,
                  const TimingModel& model) {
  auto& slot = isWrite ? r.accesses.writes : r.accesses.reads;
  slot[static_cast<std::size_t>(storage)] += 1;
  const Cycles c = model.accessCost(storage);
  r.memoryCycles += c;
  r.cycles += c;
}

}  // namespace

WcetResult SchemaAnalyzer::analyzeRef(const ir::VarRef& ref,
                                      bool isWrite) const {
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
  chargeAccess(r, decl->storage, isWrite, model_);
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
      r += analyzeRef(ir::cast<ir::VarRef>(expr), /*isWrite=*/false);
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
      r += analyzeRef(assign.lhs(), /*isWrite=*/true);
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
        total += schema.analyzeStmt(*assign).cycles;
      }
      return total;
    }
    case ir::CfgNodeKind::Branch:
      return schema.analyzeExpr(*node.cond).cycles +
             model_.opCost(OpClass::Branch);
    case ir::CfgNodeKind::Loop: {
      const std::int64_t trip = node.loop->tripCount();
      Cycles total = model_.opCost(OpClass::Branch);
      if (trip > 0) {
        const Cycles body = longestPath(*node.body);
        total += trip * (body + model_.opCost(OpClass::LoopStep));
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
    const Cycles total = here + nodeCost(cfg.node(id));
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
