#include "ir/function.h"

#include <functional>
#include <limits>
#include <unordered_set>

#include "support/diagnostics.h"

namespace argo::ir {

using support::ToolchainError;

const char* storageName(Storage storage) noexcept {
  switch (storage) {
    case Storage::Local: return "local";
    case Storage::Scratchpad: return "spm";
    case Storage::Shared: return "shared";
  }
  return "?";
}

const char* varRoleName(VarRole role) noexcept {
  switch (role) {
    case VarRole::Input: return "in";
    case VarRole::Output: return "out";
    case VarRole::State: return "state";
    case VarRole::Temp: return "tmp";
    case VarRole::Const: return "const";
  }
  return "?";
}

VarDecl& Function::declare(VarDecl decl) {
  if (index_.contains(decl.name)) {
    throw ToolchainError("duplicate variable '" + decl.name + "' in function '" +
                         name_ + "'");
  }
  index_.emplace(decl.name, decls_.size());
  decls_.push_back(std::move(decl));
  return decls_.back();
}

VarDecl& Function::declare(std::string name, Type type, VarRole role,
                           Storage storage) {
  return declare(VarDecl{std::move(name), std::move(type), role, storage});
}

const VarDecl* Function::find(const std::string& name) const noexcept {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &decls_[it->second];
}

VarDecl* Function::find(const std::string& name) noexcept {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &decls_[it->second];
}

const VarDecl& Function::lookup(const std::string& name) const {
  const VarDecl* decl = find(name);
  if (decl == nullptr) {
    throw ToolchainError("undeclared variable '" + name + "' in function '" +
                         name_ + "'");
  }
  return *decl;
}

std::unique_ptr<Function> Function::clone() const {
  auto out = std::make_unique<Function>(name_);
  for (const VarDecl& d : decls_) out->declare(d);
  out->setBody(body_->cloneBlock());
  return out;
}

std::int64_t Function::storageBytes(Storage storage) const noexcept {
  std::int64_t total = 0;
  for (const VarDecl& d : decls_) {
    if (d.storage == storage) total += d.type.byteSize();
  }
  return total;
}

namespace {

class Validator {
 public:
  explicit Validator(const Function& fn) : fn_(fn) {}

  std::vector<std::string> run() {
    visitBlock(fn_.body());
    return std::move(problems_);
  }

 private:
  void visitBlock(const Block& block) {
    for (const StmtPtr& s : block.stmts()) visitStmt(*s);
  }

  void visitStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::Assign: {
        const auto& assign = cast<Assign>(stmt);
        visitRef(assign.lhs(), /*isWrite=*/true);
        visitExpr(assign.rhs());
        break;
      }
      case StmtKind::For: {
        const auto& loop = cast<For>(stmt);
        if (loop.step() <= 0) {
          problems_.push_back("loop '" + loop.var() + "' has non-positive step");
        }
        constexpr auto kMaxTrips = static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max());
        if (loop.iterations() > kMaxTrips) {
          problems_.push_back("loop '" + loop.var() +
                              "' runs more than INT64_MAX iterations");
        }
        if (fn_.find(loop.var()) != nullptr) {
          problems_.push_back("loop variable '" + loop.var() +
                              "' shadows a declared variable");
        }
        if (loopVars_.contains(loop.var())) {
          problems_.push_back("loop variable '" + loop.var() +
                              "' shadows an enclosing loop variable");
        }
        loopVars_.insert(loop.var());
        visitBlock(loop.body());
        loopVars_.erase(loop.var());
        break;
      }
      case StmtKind::If: {
        const auto& branch = cast<If>(stmt);
        visitExpr(branch.cond());
        visitBlock(branch.thenBody());
        visitBlock(branch.elseBody());
        break;
      }
      case StmtKind::Block:
        visitBlock(cast<Block>(stmt));
        break;
    }
  }

  void visitRef(const VarRef& ref, bool isWrite) {
    const bool isLoopVar = loopVars_.contains(ref.name());
    const VarDecl* decl = fn_.find(ref.name());
    if (isLoopVar) {
      if (isWrite) {
        problems_.push_back("assignment to loop variable '" + ref.name() + "'");
      }
      if (!ref.indices().empty()) {
        problems_.push_back("loop variable '" + ref.name() + "' indexed");
      }
      return;
    }
    if (decl == nullptr) {
      problems_.push_back("undeclared variable '" + ref.name() + "'");
      return;
    }
    const int rank = decl->type.rank();
    const int nidx = static_cast<int>(ref.indices().size());
    if (nidx != 0 && nidx != rank) {
      problems_.push_back("variable '" + ref.name() + "' has rank " +
                          std::to_string(rank) + " but " +
                          std::to_string(nidx) + " indices");
    }
    if (nidx == 0 && rank != 0) {
      problems_.push_back("whole-array reference to '" + ref.name() +
                          "' (array traffic must use loops)");
    }
    if (isWrite &&
        (decl->role == VarRole::Input || decl->role == VarRole::Const)) {
      problems_.push_back("write to read-only variable '" + ref.name() + "'");
    }
    for (const ExprPtr& idx : ref.indices()) visitExpr(*idx);
  }

  void visitExpr(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
      case ExprKind::BoolLit:
        break;
      case ExprKind::VarRef:
        visitRef(cast<VarRef>(expr), /*isWrite=*/false);
        break;
      case ExprKind::BinOp: {
        const auto& bin = cast<BinOp>(expr);
        visitExpr(bin.lhs());
        visitExpr(bin.rhs());
        break;
      }
      case ExprKind::UnOp:
        visitExpr(cast<UnOp>(expr).operand());
        break;
      case ExprKind::Call:
        for (const ExprPtr& a : cast<Call>(expr).args()) visitExpr(*a);
        break;
      case ExprKind::Select: {
        const auto& sel = cast<Select>(expr);
        visitExpr(sel.cond());
        visitExpr(sel.onTrue());
        visitExpr(sel.onFalse());
        break;
      }
    }
  }

  const Function& fn_;
  std::unordered_set<std::string> loopVars_;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> validate(const Function& fn) {
  return Validator(fn).run();
}

}  // namespace argo::ir
