// Expression nodes of the ARGO IR.
//
// Expressions are side-effect free trees owned through std::unique_ptr.
// Deep copies go through clone(); pattern dispatch uses kind() plus the
// isa<>/cast<> helpers at the bottom of this header.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/type.h"

namespace argo::ir {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Discriminator for Expr subclasses.
enum class ExprKind : std::uint8_t {
  IntLit,
  FloatLit,
  BoolLit,
  VarRef,
  BinOp,
  UnOp,
  Call,
  Select,
};

/// Binary operators. Comparison/logical operators yield Bool.
enum class BinOpKind : std::uint8_t {
  Add, Sub, Mul, Div, Mod, Min, Max,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

/// Unary operators / one-argument intrinsics.
enum class UnOpKind : std::uint8_t {
  Neg, Not, Abs, Sqrt, Exp, Log, Sin, Cos, Tan, Atan, Floor, ToFloat, ToInt,
};

[[nodiscard]] const char* binOpName(BinOpKind op) noexcept;
[[nodiscard]] const char* unOpName(UnOpKind op) noexcept;
[[nodiscard]] bool isComparison(BinOpKind op) noexcept;
[[nodiscard]] bool isLogical(BinOpKind op) noexcept;

/// The IR's checked int64 arithmetic, shared by the Scilab front end,
/// constant folding and the evaluator: `a op b` for Add, Sub, Mul, Div,
/// Mod, Min and Max, or no value where C leaves the result undefined — a
/// zero divisor, INT64_MIN / -1 and INT64_MIN % -1, and any overflow of
/// +, - or *. Comparisons and logical operators have no value here.
[[nodiscard]] inline std::optional<std::int64_t> checkedIntOp(
    BinOpKind op, std::int64_t a, std::int64_t b) noexcept {
  std::int64_t out = 0;
  switch (op) {
    case BinOpKind::Add:
      if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
      return out;
    case BinOpKind::Sub:
      if (__builtin_sub_overflow(a, b, &out)) return std::nullopt;
      return out;
    case BinOpKind::Mul:
      if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
      return out;
    case BinOpKind::Div:
    case BinOpKind::Mod:
      if (b == 0 ||
          (b == -1 && a == std::numeric_limits<std::int64_t>::min())) {
        return std::nullopt;
      }
      return op == BinOpKind::Div ? a / b : a % b;
    case BinOpKind::Min: return std::min(a, b);
    case BinOpKind::Max: return std::max(a, b);
    default: return std::nullopt;
  }
}

/// `op a` for Neg and Abs, or no value when it overflows (a is
/// INT64_MIN). Every other unary operator has no value here.
[[nodiscard]] inline std::optional<std::int64_t> checkedIntOp(
    UnOpKind op, std::int64_t a) noexcept {
  if (op == UnOpKind::Abs && a >= 0) return a;
  if (op != UnOpKind::Neg && op != UnOpKind::Abs) return std::nullopt;
  return checkedIntOp(BinOpKind::Sub, 0, a);
}

/// Base class of all expressions.
class Expr {
 public:
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  [[nodiscard]] ExprKind kind() const noexcept { return kind_; }
  [[nodiscard]] virtual ExprPtr clone() const = 0;

 protected:
  explicit Expr(ExprKind kind) noexcept : kind_(kind) {}

 private:
  ExprKind kind_;
};

/// 64-bit integer literal (also used for i32 values; range-checked on use).
class IntLit final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::IntLit;
  explicit IntLit(std::int64_t value) noexcept
      : Expr(Kind), value_(value) {}
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<IntLit>(value_);
  }

 private:
  std::int64_t value_;
};

/// Floating point literal.
class FloatLit final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::FloatLit;
  explicit FloatLit(double value) noexcept : Expr(Kind), value_(value) {}
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<FloatLit>(value_);
  }

 private:
  double value_;
};

/// Boolean literal.
class BoolLit final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::BoolLit;
  explicit BoolLit(bool value) noexcept : Expr(Kind), value_(value) {}
  [[nodiscard]] bool value() const noexcept { return value_; }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<BoolLit>(value_);
  }

 private:
  bool value_;
};

/// Reference to a scalar variable or an element of an array variable.
///
/// `indices()` is empty for whole-scalar references. Whole-array references
/// never appear inside expressions; array traffic is expressed with loops.
class VarRef final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::VarRef;
  explicit VarRef(std::string name, std::vector<ExprPtr> indices = {})
      : Expr(Kind), name_(std::move(name)), indices_(std::move(indices)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void setName(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::vector<ExprPtr>& indices() const noexcept {
    return indices_;
  }
  [[nodiscard]] std::vector<ExprPtr>& indices() noexcept { return indices_; }
  [[nodiscard]] ExprPtr clone() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> indices_;
};

/// Binary operation.
class BinOp final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::BinOp;
  BinOp(BinOpKind op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  [[nodiscard]] BinOpKind op() const noexcept { return op_; }
  [[nodiscard]] const Expr& lhs() const noexcept { return *lhs_; }
  [[nodiscard]] const Expr& rhs() const noexcept { return *rhs_; }
  [[nodiscard]] ExprPtr takeLhs() noexcept { return std::move(lhs_); }
  [[nodiscard]] ExprPtr takeRhs() noexcept { return std::move(rhs_); }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<BinOp>(op_, lhs_->clone(), rhs_->clone());
  }

 private:
  BinOpKind op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Unary operation or single-argument math intrinsic.
class UnOp final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::UnOp;
  UnOp(UnOpKind op, ExprPtr operand)
      : Expr(Kind), op_(op), operand_(std::move(operand)) {}

  [[nodiscard]] UnOpKind op() const noexcept { return op_; }
  [[nodiscard]] const Expr& operand() const noexcept { return *operand_; }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<UnOp>(op_, operand_->clone());
  }

 private:
  UnOpKind op_;
  ExprPtr operand_;
};

/// Multi-argument math intrinsic (e.g. atan2, pow, hypot).
class Call final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::Call;
  Call(std::string callee, std::vector<ExprPtr> args)
      : Expr(Kind), callee_(std::move(callee)), args_(std::move(args)) {}

  [[nodiscard]] const std::string& callee() const noexcept { return callee_; }
  [[nodiscard]] const std::vector<ExprPtr>& args() const noexcept {
    return args_;
  }
  [[nodiscard]] ExprPtr clone() const override;

 private:
  std::string callee_;
  std::vector<ExprPtr> args_;
};

/// Ternary select: cond ? onTrue : onFalse. Both arms are evaluated for
/// WCET purposes as max(arms); the evaluator short-circuits.
class Select final : public Expr {
 public:
  static constexpr ExprKind Kind = ExprKind::Select;
  Select(ExprPtr cond, ExprPtr onTrue, ExprPtr onFalse)
      : Expr(Kind),
        cond_(std::move(cond)),
        onTrue_(std::move(onTrue)),
        onFalse_(std::move(onFalse)) {}

  [[nodiscard]] const Expr& cond() const noexcept { return *cond_; }
  [[nodiscard]] const Expr& onTrue() const noexcept { return *onTrue_; }
  [[nodiscard]] const Expr& onFalse() const noexcept { return *onFalse_; }
  [[nodiscard]] ExprPtr clone() const override {
    return std::make_unique<Select>(cond_->clone(), onTrue_->clone(),
                                    onFalse_->clone());
  }

 private:
  ExprPtr cond_;
  ExprPtr onTrue_;
  ExprPtr onFalse_;
};

/// Checked downcast helpers.
template <typename T>
[[nodiscard]] bool isa(const Expr& e) noexcept {
  return e.kind() == T::Kind;
}

template <typename T>
[[nodiscard]] const T& cast(const Expr& e) {
  return static_cast<const T&>(e);
}

template <typename T>
[[nodiscard]] const T* dynCast(const Expr& e) noexcept {
  return isa<T>(e) ? &static_cast<const T&>(e) : nullptr;
}

}  // namespace argo::ir
