// Operation classification shared by the WCET timing model, the reference
// interpreter, and the simulator.
//
// Every IR operation maps to one OpClass; the ADL core model assigns a cycle
// cost to each class. Using one classification on both the analysis side
// (WCET) and the execution side (simulator) is what makes the safety claim
// "observed <= bound" checkable: both sides price the same events, the bound
// differs only by path/interference pessimism.
#pragma once

#include <array>
#include <cstdint>

#include "ir/expr.h"

namespace argo::ir {

/// Classes of priced operations.
enum class OpClass : std::uint8_t {
  IntAlu,     ///< Integer add/sub/logic, address arithmetic.
  IntMul,     ///< Integer multiply.
  IntDiv,     ///< Integer divide / modulo.
  FloatAdd,   ///< FP add/sub/compare.
  FloatMul,   ///< FP multiply.
  FloatDiv,   ///< FP divide / sqrt.
  MathFunc,   ///< Library math call (sin, exp, atan2, ...).
  Compare,    ///< Integer compare.
  Select,     ///< Conditional move.
  Branch,     ///< Taken/non-taken branch (if, loop exit test).
  LoopStep,   ///< Loop increment + back-edge.
};

inline constexpr int kOpClassCount = 11;

[[nodiscard]] const char* opClassName(OpClass op) noexcept;

/// Dense per-class counters.
class OpCounts {
 public:
  [[nodiscard]] std::int64_t& operator[](OpClass op) noexcept {
    return counts_[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] std::int64_t operator[](OpClass op) const noexcept {
    return counts_[static_cast<std::size_t>(op)];
  }

 private:
  std::array<std::int64_t, kOpClassCount> counts_{};
};

/// OpClass of a binary operator given operand "floatness".
[[nodiscard]] OpClass classifyBinOp(BinOpKind op, bool floatOperands) noexcept;

/// OpClass of a unary operator given operand "floatness".
[[nodiscard]] OpClass classifyUnOp(UnOpKind op, bool floatOperand) noexcept;

}  // namespace argo::ir
