// Convenience factory functions for constructing IR trees.
//
// The model compiler, the Scilab front end, the transformation passes and
// the tests all build IR; these helpers keep that code readable:
//
//   auto s = assign(ref("y", {var("i")}),
//                   add(mul(ref("a", {var("i")}), flt(2.0)), ref("b")));
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/expr.h"
#include "ir/stmt.h"

namespace argo::ir {

[[nodiscard]] inline ExprPtr lit(std::int64_t v) {
  return std::make_unique<IntLit>(v);
}
[[nodiscard]] inline ExprPtr flt(double v) {
  return std::make_unique<FloatLit>(v);
}
[[nodiscard]] inline ExprPtr boolean(bool v) {
  return std::make_unique<BoolLit>(v);
}

/// Scalar variable reference (also used for loop variables).
[[nodiscard]] inline std::unique_ptr<VarRef> ref(std::string name) {
  return std::make_unique<VarRef>(std::move(name));
}

/// Indexed array reference.
[[nodiscard]] inline std::unique_ptr<VarRef> ref(std::string name,
                                                 std::vector<ExprPtr> idx) {
  return std::make_unique<VarRef>(std::move(name), std::move(idx));
}

[[nodiscard]] inline ExprPtr var(std::string name) {
  return ref(std::move(name));
}

/// Builds an index vector from expression arguments.
template <typename... Args>
[[nodiscard]] std::vector<ExprPtr> exprVec(Args... args) {
  std::vector<ExprPtr> out;
  out.reserve(sizeof...(args));
  (out.push_back(std::move(args)), ...);
  return out;
}

[[nodiscard]] inline ExprPtr bin(BinOpKind op, ExprPtr a, ExprPtr b) {
  return std::make_unique<BinOp>(op, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr add(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Add, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr sub(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Sub, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr mul(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Mul, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr div(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Div, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr lt(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Lt, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr ge(ExprPtr a, ExprPtr b) {
  return bin(BinOpKind::Ge, std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr un(UnOpKind op, ExprPtr a) {
  return std::make_unique<UnOp>(op, std::move(a));
}
[[nodiscard]] inline ExprPtr neg(ExprPtr a) {
  return un(UnOpKind::Neg, std::move(a));
}
[[nodiscard]] inline ExprPtr sqrtE(ExprPtr a) {
  return un(UnOpKind::Sqrt, std::move(a));
}
[[nodiscard]] inline ExprPtr call(std::string callee,
                                  std::vector<ExprPtr> args) {
  return std::make_unique<Call>(std::move(callee), std::move(args));
}
[[nodiscard]] inline ExprPtr select(ExprPtr c, ExprPtr a, ExprPtr b) {
  return std::make_unique<Select>(std::move(c), std::move(a), std::move(b));
}

[[nodiscard]] inline StmtPtr assign(std::unique_ptr<VarRef> lhs, ExprPtr rhs) {
  return std::make_unique<Assign>(std::move(lhs), std::move(rhs));
}

[[nodiscard]] inline std::unique_ptr<Block> block() {
  return std::make_unique<Block>();
}

[[nodiscard]] inline std::unique_ptr<Block> block(std::vector<StmtPtr> stmts) {
  return std::make_unique<Block>(std::move(stmts));
}

[[nodiscard]] inline StmtPtr forLoop(std::string v, std::int64_t lo,
                                     std::int64_t hi,
                                     std::unique_ptr<Block> body,
                                     std::int64_t step = 1) {
  return std::make_unique<For>(std::move(v), lo, hi, std::move(body), step);
}

[[nodiscard]] inline StmtPtr ifStmt(ExprPtr cond, std::unique_ptr<Block> thenB,
                                    std::unique_ptr<Block> elseB = nullptr) {
  if (!elseB) elseB = block();
  return std::make_unique<If>(std::move(cond), std::move(thenB),
                              std::move(elseB));
}

}  // namespace argo::ir
