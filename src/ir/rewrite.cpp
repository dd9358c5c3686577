#include "ir/rewrite.h"

namespace argo::ir {

namespace {

void renameInExpr(Expr& expr, const std::map<std::string, std::string>& renames);

void renameChildren(Expr& expr,
                    const std::map<std::string, std::string>& renames) {
  switch (expr.kind()) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::BoolLit:
      break;
    case ExprKind::VarRef: {
      auto& ref = static_cast<VarRef&>(expr);
      for (ExprPtr& idx : ref.indices()) renameInExpr(*idx, renames);
      break;
    }
    case ExprKind::BinOp: {
      auto& bin = static_cast<BinOp&>(expr);
      renameInExpr(const_cast<Expr&>(bin.lhs()), renames);
      renameInExpr(const_cast<Expr&>(bin.rhs()), renames);
      break;
    }
    case ExprKind::UnOp:
      renameInExpr(const_cast<Expr&>(static_cast<UnOp&>(expr).operand()),
                   renames);
      break;
    case ExprKind::Call: {
      auto& call = static_cast<Call&>(expr);
      for (const ExprPtr& a : call.args()) renameInExpr(*a, renames);
      break;
    }
    case ExprKind::Select: {
      auto& sel = static_cast<Select&>(expr);
      renameInExpr(const_cast<Expr&>(sel.cond()), renames);
      renameInExpr(const_cast<Expr&>(sel.onTrue()), renames);
      renameInExpr(const_cast<Expr&>(sel.onFalse()), renames);
      break;
    }
  }
}

void renameInExpr(Expr& expr, const std::map<std::string, std::string>& renames) {
  if (expr.kind() == ExprKind::VarRef) {
    auto& ref = static_cast<VarRef&>(expr);
    auto it = renames.find(ref.name());
    if (it != renames.end()) ref.setName(it->second);
  }
  renameChildren(expr, renames);
}

}  // namespace

void renameVars(Expr& expr, const std::map<std::string, std::string>& renames) {
  renameInExpr(expr, renames);
}

void renameVars(Stmt& stmt, const std::map<std::string, std::string>& renames) {
  switch (stmt.kind()) {
    case StmtKind::Assign: {
      auto& assign = cast<Assign>(stmt);
      renameInExpr(assign.lhs(), renames);
      renameInExpr(const_cast<Expr&>(assign.rhs()), renames);
      break;
    }
    case StmtKind::For: {
      auto& loop = cast<For>(stmt);
      auto it = renames.find(loop.var());
      if (it != renames.end()) loop.setVar(it->second);
      for (const StmtPtr& s : loop.body().stmts()) renameVars(*s, renames);
      break;
    }
    case StmtKind::If: {
      auto& branch = cast<If>(stmt);
      renameInExpr(const_cast<Expr&>(branch.cond()), renames);
      for (const StmtPtr& s : branch.thenBody().stmts()) {
        renameVars(*s, renames);
      }
      for (const StmtPtr& s : branch.elseBody().stmts()) {
        renameVars(*s, renames);
      }
      break;
    }
    case StmtKind::Block:
      for (const StmtPtr& s : cast<Block>(stmt).stmts()) {
        renameVars(*s, renames);
      }
      break;
  }
}

}  // namespace argo::ir
