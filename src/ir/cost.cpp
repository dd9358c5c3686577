#include "ir/cost.h"

namespace argo::ir {

const char* opClassName(OpClass op) noexcept {
  switch (op) {
    case OpClass::IntAlu: return "int_alu";
    case OpClass::IntMul: return "int_mul";
    case OpClass::IntDiv: return "int_div";
    case OpClass::FloatAdd: return "float_add";
    case OpClass::FloatMul: return "float_mul";
    case OpClass::FloatDiv: return "float_div";
    case OpClass::MathFunc: return "math_func";
    case OpClass::Compare: return "compare";
    case OpClass::Select: return "select";
    case OpClass::Branch: return "branch";
    case OpClass::LoopStep: return "loop_step";
  }
  return "?";
}

OpClass classifyBinOp(BinOpKind op, bool floatOperands) noexcept {
  switch (op) {
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Min:
    case BinOpKind::Max:
      return floatOperands ? OpClass::FloatAdd : OpClass::IntAlu;
    case BinOpKind::Mul:
      return floatOperands ? OpClass::FloatMul : OpClass::IntMul;
    case BinOpKind::Div:
    case BinOpKind::Mod:
      return floatOperands ? OpClass::FloatDiv : OpClass::IntDiv;
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge:
    case BinOpKind::Eq:
    case BinOpKind::Ne:
      return floatOperands ? OpClass::FloatAdd : OpClass::Compare;
    case BinOpKind::And:
    case BinOpKind::Or:
      return OpClass::IntAlu;
  }
  return OpClass::IntAlu;
}

OpClass classifyUnOp(UnOpKind op, bool floatOperand) noexcept {
  switch (op) {
    case UnOpKind::Neg:
    case UnOpKind::Abs:
      return floatOperand ? OpClass::FloatAdd : OpClass::IntAlu;
    case UnOpKind::Not:
      return OpClass::IntAlu;
    case UnOpKind::Sqrt:
      return OpClass::FloatDiv;
    case UnOpKind::Exp:
    case UnOpKind::Log:
    case UnOpKind::Sin:
    case UnOpKind::Cos:
    case UnOpKind::Tan:
    case UnOpKind::Atan:
      return OpClass::MathFunc;
    case UnOpKind::Floor:
    case UnOpKind::ToFloat:
    case UnOpKind::ToInt:
      return OpClass::IntAlu;
  }
  return OpClass::IntAlu;
}

}  // namespace argo::ir
