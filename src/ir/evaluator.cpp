#include "ir/evaluator.h"

#include <cmath>
#include <cstdlib>

#include "support/diagnostics.h"

namespace argo::ir {

using support::ToolchainError;

Value::Value(Type type) : type_(std::move(type)) {
  if (type_.kind() == ScalarKind::Float64) {
    f_.assign(static_cast<std::size_t>(type_.elementCount()), 0.0);
  } else {
    i_.assign(static_cast<std::size_t>(type_.elementCount()), 0);
  }
}

Value Value::scalarFloat(double v) {
  Value out(Type::float64());
  out.f_[0] = v;
  return out;
}

Value Value::scalarInt(std::int64_t v) {
  Value out(Type::int32());
  out.i_[0] = v;
  return out;
}

Value Value::scalarBool(bool v) {
  Value out(Type::boolean());
  out.i_[0] = v ? 1 : 0;
  return out;
}

Value Value::floats(Type type, std::vector<double> data) {
  Value out(std::move(type));
  if (static_cast<std::int64_t>(data.size()) != out.size()) {
    throw ToolchainError("Value::floats: size mismatch");
  }
  out.f_ = std::move(data);
  return out;
}

double Value::getFloat(std::int64_t flatIndex) const {
  if (isFloat()) return f_.at(static_cast<std::size_t>(flatIndex));
  return static_cast<double>(i_.at(static_cast<std::size_t>(flatIndex)));
}

std::int64_t Value::getInt(std::int64_t flatIndex) const {
  if (isFloat()) {
    return static_cast<std::int64_t>(f_.at(static_cast<std::size_t>(flatIndex)));
  }
  return i_.at(static_cast<std::size_t>(flatIndex));
}

void Value::setFloat(std::int64_t flatIndex, double v) {
  if (isFloat()) {
    f_.at(static_cast<std::size_t>(flatIndex)) = v;
  } else {
    i_.at(static_cast<std::size_t>(flatIndex)) = static_cast<std::int64_t>(v);
  }
}

void Value::setInt(std::int64_t flatIndex, std::int64_t v) {
  if (isFloat()) {
    f_.at(static_cast<std::size_t>(flatIndex)) = static_cast<double>(v);
  } else {
    i_.at(static_cast<std::size_t>(flatIndex)) = v;
  }
}

bool Value::approxEquals(const Value& other, double tolerance) const {
  if (size() != other.size()) return false;
  for (std::int64_t k = 0; k < size(); ++k) {
    if (std::abs(getFloat(k) - other.getFloat(k)) > tolerance) return false;
  }
  return true;
}

namespace {

/// Throws for an int64 result ir::checkedIntOp has no value for. Kept out
/// of line, off the evaluator's hot path.
[[noreturn]] void throwIntOverflow(const char* op) {
  throw ToolchainError(std::string("integer overflow in ") + op);
}

/// A transient scalar during expression evaluation.
struct Scalar {
  bool isFloat = false;
  double f = 0.0;
  std::int64_t i = 0;

  [[nodiscard]] double asFloat() const noexcept {
    return isFloat ? f : static_cast<double>(i);
  }
  [[nodiscard]] std::int64_t asInt() const noexcept {
    return isFloat ? static_cast<std::int64_t>(f) : i;
  }
  [[nodiscard]] bool truthy() const noexcept {
    return isFloat ? (f != 0.0) : (i != 0);
  }

  [[nodiscard]] static Scalar ofFloat(double v) noexcept {
    return Scalar{true, v, 0};
  }
  [[nodiscard]] static Scalar ofInt(std::int64_t v) noexcept {
    return Scalar{false, 0.0, v};
  }
  [[nodiscard]] static Scalar ofBool(bool v) noexcept {
    return ofInt(v ? 1 : 0);
  }
};

class Interp {
 public:
  Interp(const Function& fn, Environment& env, CountingMeter* meter)
      : fn_(fn), env_(env), meter_(meter) {}

  void execBlock(const Block& block) {
    for (const StmtPtr& s : block.stmts()) execStmt(*s);
  }

  void execStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::Assign:
        execAssign(cast<Assign>(stmt));
        break;
      case StmtKind::For:
        execFor(cast<For>(stmt));
        break;
      case StmtKind::If:
        execIf(cast<If>(stmt));
        break;
      case StmtKind::Block:
        execBlock(cast<Block>(stmt));
        break;
    }
  }

 private:
  void meterOp(OpClass op) {
    if (meter_ != nullptr) meter_->onOp(op);
  }
  void meterAccess(Storage storage, bool isWrite) {
    if (meter_ != nullptr) meter_->onAccess(storage, isWrite);
  }

  void execAssign(const Assign& assign) {
    const Scalar rhs = eval(assign.rhs());
    const VarRef& lhs = assign.lhs();
    Value& slot = varSlot(lhs.name());
    const std::int64_t flat = flatIndex(lhs, slot.type());
    const VarDecl& decl = fn_.lookup(lhs.name());
    meterAccess(decl.storage, /*isWrite=*/true);
    if (slot.type().kind() == ScalarKind::Float64) {
      slot.setFloat(flat, rhs.asFloat());
    } else {
      slot.setInt(flat, rhs.asInt());
    }
  }

  void execFor(const For& loop) {
    if (loopVars_.contains(loop.var())) {
      throw ToolchainError("nested reuse of loop variable '" + loop.var() + "'");
    }
    const std::uint64_t iterations = loop.iterations();
    for (std::uint64_t k = 0; k < iterations; ++k) {
      loopVars_[loop.var()] = loop.valueAt(k);
      meterOp(OpClass::LoopStep);
      execBlock(loop.body());
    }
    meterOp(OpClass::Branch);  // final exit test
    loopVars_.erase(loop.var());
  }

  void execIf(const If& branch) {
    const Scalar c = eval(branch.cond());
    meterOp(OpClass::Branch);
    if (c.truthy()) {
      execBlock(branch.thenBody());
    } else {
      execBlock(branch.elseBody());
    }
  }

  Value& varSlot(const std::string& name) {
    auto it = env_.find(name);
    if (it != env_.end()) return it->second;
    const VarDecl& decl = fn_.lookup(name);
    auto [ins, _] = env_.emplace(name, Value::zeros(decl.type));
    return ins->second;
  }

  std::int64_t flatIndex(const VarRef& ref, const Type& type) {
    if (ref.indices().empty()) return 0;
    const auto& dims = type.dims();
    if (ref.indices().size() != dims.size()) {
      throw ToolchainError("rank mismatch on '" + ref.name() + "'");
    }
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::int64_t idx = eval(*ref.indices()[d]).asInt();
      if (idx < 0 || idx >= dims[d]) {
        throw ToolchainError("index " + std::to_string(idx) +
                             " out of range [0," + std::to_string(dims[d]) +
                             ") on '" + ref.name() + "' dim " +
                             std::to_string(d));
      }
      flat = flat * dims[d] + idx;
      if (d != 0) meterOp(OpClass::IntMul);
      if (dims.size() > 1) meterOp(OpClass::IntAlu);
    }
    return flat;
  }

  Scalar evalRef(const VarRef& ref) {
    auto lv = loopVars_.find(ref.name());
    if (lv != loopVars_.end()) {
      if (!ref.indices().empty()) {
        throw ToolchainError("indexed loop variable '" + ref.name() + "'");
      }
      return Scalar::ofInt(lv->second);
    }
    const VarDecl& decl = fn_.lookup(ref.name());
    Value& slot = varSlot(ref.name());
    const std::int64_t flat = flatIndex(ref, slot.type());
    meterAccess(decl.storage, /*isWrite=*/false);
    if (slot.type().kind() == ScalarKind::Float64) {
      return Scalar::ofFloat(slot.getFloat(flat));
    }
    return Scalar::ofInt(slot.getInt(flat));
  }

  Scalar evalBin(const BinOp& bin) {
    // Logical operators short-circuit (and are priced as one IntAlu op,
    // matching the timing schema's single-op charge).
    if (bin.op() == BinOpKind::And) {
      const Scalar a = eval(bin.lhs());
      meterOp(OpClass::IntAlu);
      if (!a.truthy()) return Scalar::ofBool(false);
      return Scalar::ofBool(eval(bin.rhs()).truthy());
    }
    if (bin.op() == BinOpKind::Or) {
      const Scalar a = eval(bin.lhs());
      meterOp(OpClass::IntAlu);
      if (a.truthy()) return Scalar::ofBool(true);
      return Scalar::ofBool(eval(bin.rhs()).truthy());
    }

    const Scalar a = eval(bin.lhs());
    const Scalar b = eval(bin.rhs());
    const bool flt = a.isFloat || b.isFloat;
    meterOp(classifyBinOp(bin.op(), flt));

    if (isComparison(bin.op())) {
      const double x = a.asFloat();
      const double y = b.asFloat();
      switch (bin.op()) {
        case BinOpKind::Lt: return Scalar::ofBool(x < y);
        case BinOpKind::Le: return Scalar::ofBool(x <= y);
        case BinOpKind::Gt: return Scalar::ofBool(x > y);
        case BinOpKind::Ge: return Scalar::ofBool(x >= y);
        case BinOpKind::Eq: return Scalar::ofBool(x == y);
        case BinOpKind::Ne: return Scalar::ofBool(x != y);
        default: break;
      }
    }

    if (flt) {
      const double x = a.asFloat();
      const double y = b.asFloat();
      switch (bin.op()) {
        case BinOpKind::Add: return Scalar::ofFloat(x + y);
        case BinOpKind::Sub: return Scalar::ofFloat(x - y);
        case BinOpKind::Mul: return Scalar::ofFloat(x * y);
        case BinOpKind::Div:
          return Scalar::ofFloat(x / y);
        case BinOpKind::Mod: return Scalar::ofFloat(std::fmod(x, y));
        case BinOpKind::Min: return Scalar::ofFloat(std::fmin(x, y));
        case BinOpKind::Max: return Scalar::ofFloat(std::fmax(x, y));
        default: break;
      }
      throw ToolchainError("unhandled binary operator");
    }
    if (const auto v = checkedIntOp(bin.op(), a.i, b.i)) {
      return Scalar::ofInt(*v);
    }
    if (b.i == 0 && bin.op() == BinOpKind::Div) {
      throw ToolchainError("integer division by zero");
    }
    if (b.i == 0 && bin.op() == BinOpKind::Mod) {
      throw ToolchainError("integer modulo by zero");
    }
    throwIntOverflow(binOpName(bin.op()));
  }

  Scalar evalUn(const UnOp& un) {
    const Scalar a = eval(un.operand());
    meterOp(classifyUnOp(un.op(), a.isFloat));
    switch (un.op()) {
      case UnOpKind::Neg:
      case UnOpKind::Abs: {
        if (a.isFloat) {
          return Scalar::ofFloat(un.op() == UnOpKind::Neg ? -a.f
                                                          : std::abs(a.f));
        }
        if (const auto v = checkedIntOp(un.op(), a.i)) {
          return Scalar::ofInt(*v);
        }
        throwIntOverflow(unOpName(un.op()));
      }
      case UnOpKind::Not:
        return Scalar::ofBool(!a.truthy());
      case UnOpKind::Sqrt: return Scalar::ofFloat(std::sqrt(a.asFloat()));
      case UnOpKind::Exp: return Scalar::ofFloat(std::exp(a.asFloat()));
      case UnOpKind::Log: return Scalar::ofFloat(std::log(a.asFloat()));
      case UnOpKind::Sin: return Scalar::ofFloat(std::sin(a.asFloat()));
      case UnOpKind::Cos: return Scalar::ofFloat(std::cos(a.asFloat()));
      case UnOpKind::Tan: return Scalar::ofFloat(std::tan(a.asFloat()));
      case UnOpKind::Atan: return Scalar::ofFloat(std::atan(a.asFloat()));
      case UnOpKind::Floor: return Scalar::ofFloat(std::floor(a.asFloat()));
      case UnOpKind::ToFloat: return Scalar::ofFloat(a.asFloat());
      case UnOpKind::ToInt: return Scalar::ofInt(a.asInt());
    }
    throw ToolchainError("unhandled unary operator");
  }

  Scalar evalCall(const Call& call) {
    std::vector<Scalar> args;
    args.reserve(call.args().size());
    for (const ExprPtr& a : call.args()) args.push_back(eval(*a));
    meterOp(OpClass::MathFunc);
    const std::string& name = call.callee();
    auto arg = [&](std::size_t k) { return args.at(k).asFloat(); };
    if (name == "atan2" && args.size() == 2) {
      return Scalar::ofFloat(std::atan2(arg(0), arg(1)));
    }
    if (name == "pow" && args.size() == 2) {
      return Scalar::ofFloat(std::pow(arg(0), arg(1)));
    }
    if (name == "hypot" && args.size() == 2) {
      return Scalar::ofFloat(std::hypot(arg(0), arg(1)));
    }
    if (name == "fmod" && args.size() == 2) {
      return Scalar::ofFloat(std::fmod(arg(0), arg(1)));
    }
    throw ToolchainError("unknown intrinsic '" + name + "' with " +
                         std::to_string(args.size()) + " args");
  }

  Scalar eval(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::IntLit:
        return Scalar::ofInt(cast<IntLit>(expr).value());
      case ExprKind::FloatLit:
        return Scalar::ofFloat(cast<FloatLit>(expr).value());
      case ExprKind::BoolLit:
        return Scalar::ofBool(cast<BoolLit>(expr).value());
      case ExprKind::VarRef:
        return evalRef(cast<VarRef>(expr));
      case ExprKind::BinOp:
        return evalBin(cast<BinOp>(expr));
      case ExprKind::UnOp:
        return evalUn(cast<UnOp>(expr));
      case ExprKind::Call:
        return evalCall(cast<Call>(expr));
      case ExprKind::Select: {
        const auto& sel = cast<Select>(expr);
        const Scalar c = eval(sel.cond());
        meterOp(OpClass::Select);
        return c.truthy() ? eval(sel.onTrue()) : eval(sel.onFalse());
      }
    }
    throw ToolchainError("unhandled expression kind");
  }

  const Function& fn_;
  Environment& env_;
  CountingMeter* meter_;
  std::unordered_map<std::string, std::int64_t> loopVars_;
};

}  // namespace

void Evaluator::run(Environment& env, CountingMeter* meter) const {
  for (const VarDecl& d : fn_.decls()) {
    if (d.role == VarRole::Input && !env.contains(d.name)) {
      throw ToolchainError("missing input '" + d.name + "' for function '" +
                           fn_.name() + "'");
    }
  }
  Interp interp(fn_, env, meter);
  interp.execBlock(fn_.body());
}

void Evaluator::runStmt(const Stmt& stmt, Environment& env,
                        CountingMeter* meter) const {
  Interp interp(fn_, env, meter);
  interp.execStmt(stmt);
}

Environment makeZeroEnvironment(const Function& fn) {
  Environment env;
  for (const VarDecl& d : fn.decls()) {
    env.emplace(d.name, Value::zeros(d.type));
  }
  return env;
}

}  // namespace argo::ir
