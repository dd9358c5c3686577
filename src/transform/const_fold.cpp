#include "transform/const_fold.h"

#include <cmath>
#include <optional>

namespace argo::transform {

namespace {

using ir::BinOpKind;
using ir::Expr;
using ir::ExprKind;
using ir::ExprPtr;

struct Lit {
  bool isFloat = false;
  double f = 0.0;
  std::int64_t i = 0;
  [[nodiscard]] double asFloat() const {
    return isFloat ? f : static_cast<double>(i);
  }
};

std::optional<Lit> asLiteral(const Expr& e) {
  if (const auto* i = ir::dynCast<ir::IntLit>(e)) return Lit{false, 0.0, i->value()};
  if (const auto* f = ir::dynCast<ir::FloatLit>(e)) return Lit{true, f->value(), 0};
  return std::nullopt;
}

ExprPtr makeLit(bool isFloat, double f, std::int64_t i) {
  if (isFloat) return std::make_unique<ir::FloatLit>(f);
  return std::make_unique<ir::IntLit>(i);
}

std::optional<ExprPtr> foldBin(BinOpKind op, const Lit& a, const Lit& b) {
  const bool flt = a.isFloat || b.isFloat;
  if (flt) {
    const double x = a.asFloat();
    const double y = b.asFloat();
    switch (op) {
      case BinOpKind::Add: return makeLit(true, x + y, 0);
      case BinOpKind::Sub: return makeLit(true, x - y, 0);
      case BinOpKind::Mul: return makeLit(true, x * y, 0);
      case BinOpKind::Div:
        if (y == 0.0) return std::nullopt;  // keep run-time semantics
        return makeLit(true, x / y, 0);
      case BinOpKind::Min: return makeLit(true, std::fmin(x, y), 0);
      case BinOpKind::Max: return makeLit(true, std::fmax(x, y), 0);
      default: return std::nullopt;
    }
  }
  // No value (a zero divisor or an overflow) keeps run-time semantics.
  const std::optional<std::int64_t> value = ir::checkedIntOp(op, a.i, b.i);
  if (!value) return std::nullopt;
  return makeLit(false, 0, *value);
}

void foldStmt(ir::Stmt& stmt, bool& changed);

}  // namespace

ir::ExprPtr foldExpr(ir::ExprPtr expr, bool& changed) {
  switch (expr->kind()) {
    case ExprKind::VarRef: {
      auto& ref = static_cast<ir::VarRef&>(*expr);
      for (ExprPtr& idx : ref.indices()) idx = foldExpr(std::move(idx), changed);
      return expr;
    }
    case ExprKind::BinOp: {
      auto& bin = static_cast<ir::BinOp&>(*expr);
      ExprPtr lhs = foldExpr(bin.takeLhs(), changed);
      ExprPtr rhs = foldExpr(bin.takeRhs(), changed);
      const auto la = asLiteral(*lhs);
      const auto lb = asLiteral(*rhs);
      if (la && lb) {
        if (auto folded = foldBin(bin.op(), *la, *lb)) {
          changed = true;
          return std::move(*folded);
        }
      }
      // Reassociate (x +/- c1) +/- c2 into x +/- (c1 +/- c2) for integer
      // literals; this collapses the Scilab 1-based index adjustment
      // (i + 1) - 1 into plain i in combination with the identity rules.
      if (lb && !lb->isFloat &&
          (bin.op() == BinOpKind::Add || bin.op() == BinOpKind::Sub)) {
        if (auto* innerBin = lhs && lhs->kind() == ExprKind::BinOp
                                 ? static_cast<ir::BinOp*>(lhs.get())
                                 : nullptr;
            innerBin != nullptr && (innerBin->op() == BinOpKind::Add ||
                                    innerBin->op() == BinOpKind::Sub)) {
          const auto innerLit = asLiteral(innerBin->rhs());
          if (innerLit && !innerLit->isFloat) {
            // x op1 c1 op2 c2 == x + combined, with combined = 0 op1 c1
            // op2 c2, rewritten as x + |combined| or x - |combined|. An
            // overflow anywhere leaves the expression as it is.
            const std::optional<std::int64_t> inner =
                ir::checkedIntOp(innerBin->op(), 0, innerLit->i);
            const std::optional<std::int64_t> combined =
                inner ? ir::checkedIntOp(bin.op(), *inner, lb->i)
                      : std::nullopt;
            const std::optional<std::int64_t> magnitude =
                combined ? ir::checkedIntOp(ir::UnOpKind::Abs, *combined)
                         : std::nullopt;
            if (magnitude) {
              ExprPtr base = innerBin->takeLhs();
              changed = true;
              if (*magnitude == 0) return base;
              return std::make_unique<ir::BinOp>(
                  *combined > 0 ? BinOpKind::Add : BinOpKind::Sub,
                  std::move(base), makeLit(false, 0, *magnitude));
            }
          }
        }
      }
      // Additive/multiplicative identities on integer literals; these come
      // straight out of the Scilab 1-based index adjustment (i + 1 - 1).
      if (lb && !lb->isFloat) {
        if ((bin.op() == BinOpKind::Add || bin.op() == BinOpKind::Sub) &&
            lb->i == 0) {
          changed = true;
          return lhs;
        }
        if (bin.op() == BinOpKind::Mul && lb->i == 1) {
          changed = true;
          return lhs;
        }
      }
      if (la && !la->isFloat) {
        if (bin.op() == BinOpKind::Add && la->i == 0) {
          changed = true;
          return rhs;
        }
        if (bin.op() == BinOpKind::Mul && la->i == 1) {
          changed = true;
          return rhs;
        }
      }
      return std::make_unique<ir::BinOp>(bin.op(), std::move(lhs),
                                         std::move(rhs));
    }
    case ExprKind::UnOp: {
      auto& un = static_cast<ir::UnOp&>(*expr);
      ExprPtr operand = foldExpr(un.operand().clone(), changed);
      if (un.op() == ir::UnOpKind::Neg) {
        if (const auto lit = asLiteral(*operand)) {
          if (lit->isFloat) {
            changed = true;
            return makeLit(true, -lit->f, 0);
          }
          if (const auto value = ir::checkedIntOp(un.op(), lit->i)) {
            changed = true;
            return makeLit(false, 0, *value);
          }
        }
      }
      return std::make_unique<ir::UnOp>(un.op(), std::move(operand));
    }
    case ExprKind::Call: {
      auto& call = static_cast<ir::Call&>(*expr);
      std::vector<ExprPtr> args;
      args.reserve(call.args().size());
      for (const ExprPtr& a : call.args()) {
        args.push_back(foldExpr(a->clone(), changed));
      }
      return std::make_unique<ir::Call>(call.callee(), std::move(args));
    }
    case ExprKind::Select: {
      auto& sel = static_cast<ir::Select&>(*expr);
      ExprPtr cond = foldExpr(sel.cond().clone(), changed);
      ExprPtr onTrue = foldExpr(sel.onTrue().clone(), changed);
      ExprPtr onFalse = foldExpr(sel.onFalse().clone(), changed);
      if (const auto* b = ir::dynCast<ir::BoolLit>(*cond)) {
        changed = true;
        return b->value() ? std::move(onTrue) : std::move(onFalse);
      }
      return std::make_unique<ir::Select>(std::move(cond), std::move(onTrue),
                                          std::move(onFalse));
    }
    default:
      return expr;
  }
}

namespace {

void foldStmt(ir::Stmt& stmt, bool& changed) {
  switch (stmt.kind()) {
    case ir::StmtKind::Assign: {
      auto& assign = ir::cast<ir::Assign>(stmt);
      for (ExprPtr& idx : assign.lhs().indices()) {
        idx = foldExpr(std::move(idx), changed);
      }
      assign.setRhs(foldExpr(assign.takeRhs(), changed));
      break;
    }
    case ir::StmtKind::For:
      for (const ir::StmtPtr& s : ir::cast<ir::For>(stmt).body().stmts()) {
        foldStmt(*s, changed);
      }
      break;
    case ir::StmtKind::If: {
      auto& branch = ir::cast<ir::If>(stmt);
      branch.setCond(foldExpr(branch.takeCond(), changed));
      for (const ir::StmtPtr& s : branch.thenBody().stmts()) {
        foldStmt(*s, changed);
      }
      for (const ir::StmtPtr& s : branch.elseBody().stmts()) {
        foldStmt(*s, changed);
      }
      break;
    }
    case ir::StmtKind::Block:
      for (const ir::StmtPtr& s : ir::cast<ir::Block>(stmt).stmts()) {
        foldStmt(*s, changed);
      }
      break;
  }
}

}  // namespace

bool ConstantFolding::run(ir::Function& fn) {
  bool changed = false;
  for (const ir::StmtPtr& s : fn.body().stmts()) foldStmt(*s, changed);
  return changed;
}

}  // namespace argo::transform
