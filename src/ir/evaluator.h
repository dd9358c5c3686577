// Reference interpreter for the ARGO IR.
//
// The evaluator serves three purposes:
//  1. Golden-model testing: diagram-compiled IR must compute the same values
//     as the hand-written C++ use-case references (tests/).
//  2. Transformation validation: a pass is semantics-preserving iff original
//     and transformed functions evaluate equal on random inputs.
//  3. Execution-time measurement: with a CountingMeter attached, every
//     priced operation and memory access is counted, giving the simulator
//     the *actual* (input-dependent) cost of a task, to compare against the
//     static WCET bound.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/cost.h"
#include "ir/function.h"

namespace argo::ir {

/// Runtime value: a scalar or dense array, stored per element kind.
class Value {
 public:
  Value() = default;
  explicit Value(Type type);

  [[nodiscard]] static Value zeros(Type type) { return Value(std::move(type)); }
  [[nodiscard]] static Value scalarFloat(double v);
  [[nodiscard]] static Value scalarInt(std::int64_t v);
  [[nodiscard]] static Value scalarBool(bool v);
  [[nodiscard]] static Value floats(Type type, std::vector<double> data);

  [[nodiscard]] const Type& type() const noexcept { return type_; }
  [[nodiscard]] bool isFloat() const noexcept {
    return type_.kind() == ScalarKind::Float64;
  }

  [[nodiscard]] double getFloat(std::int64_t flatIndex = 0) const;
  [[nodiscard]] std::int64_t getInt(std::int64_t flatIndex = 0) const;
  void setFloat(std::int64_t flatIndex, double v);
  void setInt(std::int64_t flatIndex, std::int64_t v);

  /// Number of scalar elements.
  [[nodiscard]] std::int64_t size() const noexcept {
    return type_.elementCount();
  }

  /// Element-wise comparison with absolute tolerance for floats.
  [[nodiscard]] bool approxEquals(const Value& other,
                                  double tolerance = 1e-9) const;

 private:
  Type type_ = Type::float64();
  std::vector<double> f_;        // Float64 payload
  std::vector<std::int64_t> i_;  // Int32/Bool payload
};

/// Named variable environment.
using Environment = std::unordered_map<std::string, Value>;

/// Counts every priced event during evaluation.
class CountingMeter {
 public:
  void onOp(OpClass op) { ops_[op] += 1; }
  void onAccess(Storage storage, bool isWrite) {
    auto& slot = isWrite ? writes_ : reads_;
    slot[static_cast<std::size_t>(storage)] += 1;
  }

  [[nodiscard]] const OpCounts& ops() const noexcept { return ops_; }
  [[nodiscard]] std::int64_t reads(Storage s) const noexcept {
    return reads_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int64_t writes(Storage s) const noexcept {
    return writes_[static_cast<std::size_t>(s)];
  }

 private:
  OpCounts ops_;
  std::array<std::int64_t, 3> reads_{};
  std::array<std::int64_t, 3> writes_{};
};

/// Interprets a function over an environment.
///
/// The environment must contain every Input variable; State variables are
/// zero-initialized when absent and persist across run() calls; Output and
/// Temp variables are (re)created. Throws ToolchainError on out-of-range
/// indices, integer division by zero and int64 overflow (ir::checkedIntOp)
/// — programs the tool-chain generates are expected to be total.
class Evaluator {
 public:
  explicit Evaluator(const Function& fn) : fn_(fn) {}

  /// Runs the whole function body.
  void run(Environment& env, CountingMeter* meter = nullptr) const;

  /// Runs one statement (used by the simulator to execute a single task's
  /// slice of the function).
  void runStmt(const Stmt& stmt, Environment& env,
               CountingMeter* meter = nullptr) const;

 private:
  const Function& fn_;
};

/// Builds an environment with zero-valued Inputs/States for `fn`.
[[nodiscard]] Environment makeZeroEnvironment(const Function& fn);

}  // namespace argo::ir
