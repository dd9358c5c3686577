// Statement nodes of the ARGO IR.
//
// The IR is *structured*: there is no goto, and loops are counted `for`
// loops with compile-time constant bounds. This restriction is what the
// whole tool-chain trades on — it makes loop bounds, task extraction, and
// WCET analysis decidable (paper Section II-B/III-C).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace argo::ir {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Discriminator for Stmt subclasses.
enum class StmtKind : std::uint8_t { Assign, For, If, Block };

/// Base class of all statements.
class Stmt {
 public:
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  [[nodiscard]] StmtKind kind() const noexcept { return kind_; }
  [[nodiscard]] virtual StmtPtr clone() const = 0;

  /// Optional label attached by the front end / task extractor, used to
  /// name tasks and to report diagnostics. Empty by default.
  std::string label;

 protected:
  explicit Stmt(StmtKind kind) noexcept : kind_(kind) {}

 private:
  StmtKind kind_;
};

/// Ordered sequence of statements.
class Block final : public Stmt {
 public:
  static constexpr StmtKind Kind = StmtKind::Block;
  Block() : Stmt(Kind) {}
  explicit Block(std::vector<StmtPtr> stmts)
      : Stmt(Kind), stmts_(std::move(stmts)) {}

  [[nodiscard]] const std::vector<StmtPtr>& stmts() const noexcept {
    return stmts_;
  }
  [[nodiscard]] std::vector<StmtPtr>& stmts() noexcept { return stmts_; }
  void append(StmtPtr stmt) { stmts_.push_back(std::move(stmt)); }
  [[nodiscard]] bool empty() const noexcept { return stmts_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return stmts_.size(); }

  [[nodiscard]] StmtPtr clone() const override;
  [[nodiscard]] std::unique_ptr<Block> cloneBlock() const;

 private:
  std::vector<StmtPtr> stmts_;
};

/// Assignment to a scalar variable or an array element.
class Assign final : public Stmt {
 public:
  static constexpr StmtKind Kind = StmtKind::Assign;
  Assign(std::unique_ptr<VarRef> lhs, ExprPtr rhs)
      : Stmt(Kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  [[nodiscard]] const VarRef& lhs() const noexcept { return *lhs_; }
  [[nodiscard]] VarRef& lhs() noexcept { return *lhs_; }
  [[nodiscard]] const Expr& rhs() const noexcept { return *rhs_; }
  [[nodiscard]] ExprPtr takeRhs() noexcept { return std::move(rhs_); }
  void setRhs(ExprPtr rhs) noexcept { rhs_ = std::move(rhs); }

  [[nodiscard]] StmtPtr clone() const override;

 private:
  std::unique_ptr<VarRef> lhs_;
  ExprPtr rhs_;
};

/// Counted loop: for (var = lower; var < upper; var += step) body.
///
/// Bounds and step are compile-time constants; step > 0. The trip count is
/// therefore statically known, which the WCET analyses rely on.
class For final : public Stmt {
 public:
  static constexpr StmtKind Kind = StmtKind::For;
  For(std::string var, std::int64_t lower, std::int64_t upper,
      std::unique_ptr<Block> body, std::int64_t step = 1)
      : Stmt(Kind),
        var_(std::move(var)),
        lower_(lower),
        upper_(upper),
        step_(step),
        body_(std::move(body)) {}

  [[nodiscard]] const std::string& var() const noexcept { return var_; }
  void setVar(std::string var) { var_ = std::move(var); }
  [[nodiscard]] std::int64_t lower() const noexcept { return lower_; }
  [[nodiscard]] std::int64_t upper() const noexcept { return upper_; }
  [[nodiscard]] std::int64_t step() const noexcept { return step_; }
  void setBounds(std::int64_t lower, std::int64_t upper) noexcept {
    lower_ = lower;
    upper_ = upper;
  }

  /// Number of iterations executed (0 when the range is empty), counted on
  /// the unsigned span so it is exact for every range. It exceeds
  /// INT64_MAX only for a loop ir::validate rejects.
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    if (upper_ <= lower_ || step_ <= 0) return 0;
    const std::uint64_t span = static_cast<std::uint64_t>(upper_) -
                               static_cast<std::uint64_t>(lower_);
    return (span - 1) / static_cast<std::uint64_t>(step_) + 1;
  }

  /// The loop variable in iteration `k` (k < iterations()): lower + k *
  /// step, computed on the unsigned span, so no value past the last index
  /// is ever formed.
  [[nodiscard]] std::int64_t valueAt(std::uint64_t k) const noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lower_) +
                                     k * static_cast<std::uint64_t>(step_));
  }

  /// iterations() as an int64: exact on every loop ir::validate accepts,
  /// INT64_MAX on a longer one.
  [[nodiscard]] std::int64_t tripCount() const noexcept {
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    const std::uint64_t n = iterations();
    return n > static_cast<std::uint64_t>(kMax) ? kMax
                                               : static_cast<std::int64_t>(n);
  }

  [[nodiscard]] const Block& body() const noexcept { return *body_; }
  [[nodiscard]] Block& body() noexcept { return *body_; }

  [[nodiscard]] StmtPtr clone() const override;

 private:
  std::string var_;
  std::int64_t lower_;
  std::int64_t upper_;
  std::int64_t step_;
  std::unique_ptr<Block> body_;
};

/// Two-way conditional. elseBody may be empty.
class If final : public Stmt {
 public:
  static constexpr StmtKind Kind = StmtKind::If;
  If(ExprPtr cond, std::unique_ptr<Block> thenBody,
     std::unique_ptr<Block> elseBody)
      : Stmt(Kind),
        cond_(std::move(cond)),
        thenBody_(std::move(thenBody)),
        elseBody_(std::move(elseBody)) {}

  [[nodiscard]] const Expr& cond() const noexcept { return *cond_; }
  [[nodiscard]] ExprPtr takeCond() noexcept { return std::move(cond_); }
  void setCond(ExprPtr cond) noexcept { cond_ = std::move(cond); }
  [[nodiscard]] const Block& thenBody() const noexcept { return *thenBody_; }
  [[nodiscard]] Block& thenBody() noexcept { return *thenBody_; }
  [[nodiscard]] const Block& elseBody() const noexcept { return *elseBody_; }
  [[nodiscard]] Block& elseBody() noexcept { return *elseBody_; }

  [[nodiscard]] StmtPtr clone() const override;

 private:
  ExprPtr cond_;
  std::unique_ptr<Block> thenBody_;
  std::unique_ptr<Block> elseBody_;
};

/// Checked downcast helpers for statements.
template <typename T>
[[nodiscard]] bool isa(const Stmt& s) noexcept {
  return s.kind() == T::Kind;
}

template <typename T>
[[nodiscard]] const T& cast(const Stmt& s) {
  return static_cast<const T&>(s);
}

template <typename T>
[[nodiscard]] T& cast(Stmt& s) {
  return static_cast<T&>(s);
}

template <typename T>
[[nodiscard]] const T* dynCast(const Stmt& s) noexcept {
  return isa<T>(s) ? &static_cast<const T&>(s) : nullptr;
}

template <typename T>
[[nodiscard]] T* dynCast(Stmt& s) noexcept {
  return isa<T>(s) ? &static_cast<T&>(s) : nullptr;
}

}  // namespace argo::ir
