#include "codegen/lower.h"

#include <cstdint>
#include <cstdio>

#include "support/diagnostics.h"

// GCC 12's optimizer emits a -Wrestrict false positive (GCC PR105329) for
// some chained std::string operator+ expressions, of which this file is
// full. No memcpy/restrict code exists in this TU; silence the bogus
// diagnostic rather than contorting every concatenation.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace argo::codegen {

using support::ToolchainError;

namespace {

/// Widens a lowered value to the evaluator's double view (Scalar::asFloat).
std::string asFloat(const LoweredExpr& e) {
  return e.isFloat ? e.text : "(double)" + e.text;
}

/// Truncates a lowered value to the evaluator's int64 view (Scalar::asInt).
std::string asInt(const LoweredExpr& e) {
  return e.isFloat ? "(int64_t)" + e.text : e.text;
}

/// C truthiness test matching Scalar::truthy (0.0 / 0 are false).
std::string truthy(const LoweredExpr& e) {
  return "(" + e.text + (e.isFloat ? " != 0.0)" : " != 0)");
}

/// An int64 value as C source. INT64_MIN has no decimal spelling: C reads
/// `-9223372036854775808` as the negation of a constant no signed type
/// holds, so it is spelled by its <stdint.h> name.
std::string intLiteral(std::int64_t v) {
  return v == INT64_MIN ? "INT64_MIN" : std::to_string(v);
}

}  // namespace

std::string sanitizeIdent(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) return "v" + out;
  return out;
}

std::string floatLiteral(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Lowerer::Lowerer(const ir::Function& fn) : fn_(fn) {
  // Deterministic, collision-free accessor names in declaration order.
  std::set<std::string> taken;
  for (const ir::VarDecl& decl : fn.decls()) {
    std::string base = "A_" + sanitizeIdent(decl.name);
    std::string candidate = base;
    for (int k = 2; taken.contains(candidate); ++k) {
      candidate = base + "_" + std::to_string(k);
    }
    taken.insert(candidate);
    cNames_.emplace(decl.name, std::move(candidate));
  }
}

const std::string& Lowerer::cName(const std::string& irName) const {
  auto it = cNames_.find(irName);
  if (it == cNames_.end()) {
    throw ToolchainError("codegen: reference to undeclared variable '" +
                         irName + "'");
  }
  return it->second;
}

std::string Lowerer::flatIndexText(const ir::VarRef& ref,
                                   const ir::Type& type) {
  if (ref.indices().empty()) return "0";
  const auto& dims = type.dims();
  if (ref.indices().size() != dims.size()) {
    throw ToolchainError("codegen: rank mismatch on '" + ref.name() + "'");
  }
  // Row-major flattening, every index truncated to int64 exactly like the
  // evaluator's flatIndex (eval(idx).asInt()).
  std::string flat;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const std::string idx = asInt(lowerExpr(*ref.indices()[d]));
    if (d == 0) {
      flat = idx;
    } else {
      flat = "(" + flat + " * " + std::to_string(dims[d]) + " + " + idx + ")";
    }
  }
  return flat;
}

LoweredExpr Lowerer::lowerExpr(const ir::Expr& expr) {
  using ir::BinOpKind;
  using ir::ExprKind;
  using ir::UnOpKind;
  switch (expr.kind()) {
    case ExprKind::IntLit: {
      const auto v = ir::cast<ir::IntLit>(expr).value();
      return {"((int64_t)" + intLiteral(v) + ")", false};
    }
    case ExprKind::FloatLit:
      return {floatLiteral(ir::cast<ir::FloatLit>(expr).value()), true};
    case ExprKind::BoolLit:
      return {ir::cast<ir::BoolLit>(expr).value() ? "((int64_t)1)"
                                                  : "((int64_t)0)",
              false};
    case ExprKind::VarRef: {
      const auto& ref = ir::cast<ir::VarRef>(expr);
      if (loopVars_.contains(ref.name())) {
        if (!ref.indices().empty()) {
          throw ToolchainError("codegen: indexed loop variable '" +
                               ref.name() + "'");
        }
        return {"L_" + sanitizeIdent(ref.name()), false};
      }
      const ir::VarDecl& decl = fn_.lookup(ref.name());
      const std::string elem =
          cName(ref.name()) + "[" + flatIndexText(ref, decl.type) + "]";
      if (decl.type.kind() == ir::ScalarKind::Float64) return {elem, true};
      // Bool / Int32 loads widen to the evaluator's int64 immediately.
      return {"(int64_t)" + elem, false};
    }
    case ExprKind::BinOp: {
      const auto& bin = ir::cast<ir::BinOp>(expr);
      // Short-circuit logical operators yield int 0/1, like Scalar::ofBool.
      if (bin.op() == BinOpKind::And || bin.op() == BinOpKind::Or) {
        const LoweredExpr a = lowerExpr(bin.lhs());
        const LoweredExpr b = lowerExpr(bin.rhs());
        const char* op = bin.op() == BinOpKind::And ? " && " : " || ";
        return {"((int64_t)(" + truthy(a) + op + truthy(b) + "))", false};
      }
      const LoweredExpr a = lowerExpr(bin.lhs());
      const LoweredExpr b = lowerExpr(bin.rhs());
      // The evaluator compares every pair as double (Scalar::asFloat).
      if (ir::isComparison(bin.op())) {
        const char* op = "";
        switch (bin.op()) {
          case BinOpKind::Lt: op = " < "; break;
          case BinOpKind::Le: op = " <= "; break;
          case BinOpKind::Gt: op = " > "; break;
          case BinOpKind::Ge: op = " >= "; break;
          case BinOpKind::Eq: op = " == "; break;
          case BinOpKind::Ne: op = " != "; break;
          default: break;
        }
        return {"((int64_t)(" + asFloat(a) + op + asFloat(b) + "))", false};
      }
      const bool flt = a.isFloat || b.isFloat;
      if (flt) {
        const std::string x = asFloat(a);
        const std::string y = asFloat(b);
        switch (bin.op()) {
          case BinOpKind::Add: return {"(" + x + " + " + y + ")", true};
          case BinOpKind::Sub: return {"(" + x + " - " + y + ")", true};
          case BinOpKind::Mul: return {"(" + x + " * " + y + ")", true};
          case BinOpKind::Div: return {"(" + x + " / " + y + ")", true};
          case BinOpKind::Mod: return {"fmod(" + x + ", " + y + ")", true};
          case BinOpKind::Min: return {"fmin(" + x + ", " + y + ")", true};
          case BinOpKind::Max: return {"fmax(" + x + ", " + y + ")", true};
          default: break;
        }
      } else {
        const std::string x = a.text;
        const std::string y = b.text;
        switch (bin.op()) {
          case BinOpKind::Add: return {"(" + x + " + " + y + ")", false};
          case BinOpKind::Sub: return {"(" + x + " - " + y + ")", false};
          case BinOpKind::Mul: return {"(" + x + " * " + y + ")", false};
          case BinOpKind::Div:
            return {"argo_idiv(" + x + ", " + y + ")", false};
          case BinOpKind::Mod:
            return {"argo_imod(" + x + ", " + y + ")", false};
          case BinOpKind::Min:
            return {"argo_imin(" + x + ", " + y + ")", false};
          case BinOpKind::Max:
            return {"argo_imax(" + x + ", " + y + ")", false};
          default: break;
        }
      }
      throw ToolchainError("codegen: unhandled binary operator");
    }
    case ExprKind::UnOp: {
      const auto& un = ir::cast<ir::UnOp>(expr);
      const LoweredExpr a = lowerExpr(un.operand());
      switch (un.op()) {
        case UnOpKind::Neg:
          return {"(-" + a.text + ")", a.isFloat};
        case UnOpKind::Not:
          return {"((int64_t)!" + truthy(a) + ")", false};
        case UnOpKind::Abs:
          return a.isFloat
                     ? LoweredExpr{"fabs(" + a.text + ")", true}
                     : LoweredExpr{"argo_iabs(" + a.text + ")", false};
        case UnOpKind::Sqrt: return {"sqrt(" + asFloat(a) + ")", true};
        case UnOpKind::Exp: return {"exp(" + asFloat(a) + ")", true};
        case UnOpKind::Log: return {"log(" + asFloat(a) + ")", true};
        case UnOpKind::Sin: return {"sin(" + asFloat(a) + ")", true};
        case UnOpKind::Cos: return {"cos(" + asFloat(a) + ")", true};
        case UnOpKind::Tan: return {"tan(" + asFloat(a) + ")", true};
        case UnOpKind::Atan: return {"atan(" + asFloat(a) + ")", true};
        case UnOpKind::Floor: return {"floor(" + asFloat(a) + ")", true};
        case UnOpKind::ToFloat: return {asFloat(a), true};
        case UnOpKind::ToInt: return {asInt(a), false};
      }
      throw ToolchainError("codegen: unhandled unary operator");
    }
    case ExprKind::Call: {
      const auto& call = ir::cast<ir::Call>(expr);
      const std::string& name = call.callee();
      const bool known = (name == "atan2" || name == "pow" ||
                          name == "hypot" || name == "fmod") &&
                         call.args().size() == 2;
      if (!known) {
        throw ToolchainError("codegen: unknown intrinsic '" + name +
                             "' with " + std::to_string(call.args().size()) +
                             " args");
      }
      const std::string a = asFloat(lowerExpr(*call.args()[0]));
      const std::string b = asFloat(lowerExpr(*call.args()[1]));
      return {name + "(" + a + ", " + b + ")", true};
    }
    case ExprKind::Select: {
      const auto& sel = ir::cast<ir::Select>(expr);
      const LoweredExpr c = lowerExpr(sel.cond());
      const LoweredExpr t = lowerExpr(sel.onTrue());
      const LoweredExpr f = lowerExpr(sel.onFalse());
      // Same-typed arms keep their type. Mixed arms promote to double: the
      // evaluator returns the chosen arm's Scalar, and every downstream
      // consumption (asFloat / asInt) observes the same value either way
      // for the magnitudes validated programs produce (|i| < 2^53).
      if (t.isFloat == f.isFloat) {
        return {"(" + truthy(c) + " ? " + t.text + " : " + f.text + ")",
                t.isFloat};
      }
      return {"(" + truthy(c) + " ? " + asFloat(t) + " : " + asFloat(f) + ")",
              true};
    }
  }
  throw ToolchainError("codegen: unhandled expression kind");
}

std::string Lowerer::storeText(const ir::VarRef& lhs, const LoweredExpr& rhs) {
  const ir::VarDecl& decl = fn_.lookup(lhs.name());
  const std::string elem =
      cName(lhs.name()) + "[" + flatIndexText(lhs, decl.type) + "]";
  switch (decl.type.kind()) {
    case ir::ScalarKind::Float64:
      return elem + " = " + asFloat(rhs) + ";";
    case ir::ScalarKind::Int32:
      return elem + " = (int32_t)" + asInt(rhs) + ";";
    case ir::ScalarKind::Bool:
      return elem + " = (signed char)" + asInt(rhs) + ";";
  }
  throw ToolchainError("codegen: unhandled scalar kind");
}

std::string Lowerer::lowerStmt(const ir::Stmt& stmt, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out;
  if (!stmt.label.empty()) out += pad + "// " + stmt.label + "\n";
  switch (stmt.kind()) {
    case ir::StmtKind::Assign: {
      const auto& assign = ir::cast<ir::Assign>(stmt);
      // A literal store that the emitted C would silently narrow is a
      // program error, not a codegen concern — diagnose it here so the
      // emission never diverges from the evaluator (which keeps the full
      // int64 value).
      if (assign.rhs().kind() == ir::ExprKind::IntLit) {
        const auto literal = ir::cast<ir::IntLit>(assign.rhs()).value();
        const ir::VarDecl& decl = fn_.lookup(assign.lhs().name());
        const bool narrows =
            (decl.type.kind() == ir::ScalarKind::Int32 &&
             (literal < INT32_MIN || literal > INT32_MAX)) ||
            (decl.type.kind() == ir::ScalarKind::Bool &&
             (literal < -128 || literal > 127));
        if (narrows) {
          throw ToolchainError(
              "codegen: literal " + std::to_string(literal) + " stored to '" +
              assign.lhs().name() +
              "' exceeds the declared " +
              (decl.type.kind() == ir::ScalarKind::Int32 ? "int32" : "bool") +
              " width (the emitted region narrows stores; see "
              "docs/CODEGEN.md)");
        }
      }
      const LoweredExpr rhs = lowerExpr(assign.rhs());
      out += pad + storeText(assign.lhs(), rhs) + "\n";
      break;
    }
    case ir::StmtKind::For: {
      const auto& loop = ir::cast<ir::For>(stmt);
      if (loopVars_.contains(loop.var())) {
        throw ToolchainError("codegen: nested reuse of loop variable '" +
                             loop.var() + "'");
      }
      const std::string v = "L_" + sanitizeIdent(loop.var());
      std::string increment = v + " += 1";
      if (loop.step() != 1) {
        // The last index plus a larger step may leave int64, so the
        // increment jumps from the last index straight to the upper bound.
        const std::uint64_t n = loop.iterations();
        increment = v + " = " + v + " < " +
                    intLiteral(loop.valueAt(n == 0 ? 0 : n - 1)) + " ? " + v +
                    " + " + std::to_string(loop.step()) + " : " +
                    intLiteral(loop.upper());
      }
      out += pad + "for (int64_t " + v + " = " + intLiteral(loop.lower()) +
             "; " + v + " < " + intLiteral(loop.upper()) + "; " + increment +
             ") {\n";
      loopVars_.insert(loop.var());
      for (const ir::StmtPtr& s : loop.body().stmts()) {
        out += lowerStmt(*s, indent + 1);
      }
      loopVars_.erase(loop.var());
      out += pad + "}\n";
      break;
    }
    case ir::StmtKind::If: {
      const auto& branch = ir::cast<ir::If>(stmt);
      out += pad + "if " + truthy(lowerExpr(branch.cond())) + " {\n";
      for (const ir::StmtPtr& s : branch.thenBody().stmts()) {
        out += lowerStmt(*s, indent + 1);
      }
      if (!branch.elseBody().empty()) {
        out += pad + "} else {\n";
        for (const ir::StmtPtr& s : branch.elseBody().stmts()) {
          out += lowerStmt(*s, indent + 1);
        }
      }
      out += pad + "}\n";
      break;
    }
    case ir::StmtKind::Block: {
      out += pad + "{\n";
      for (const ir::StmtPtr& s : ir::cast<ir::Block>(stmt).stmts()) {
        out += lowerStmt(*s, indent + 1);
      }
      out += pad + "}\n";
      break;
    }
  }
  return out;
}

}  // namespace argo::codegen
