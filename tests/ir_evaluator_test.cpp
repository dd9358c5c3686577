// Unit tests for the reference interpreter and its execution metering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ir/builder.h"
#include "ir/evaluator.h"
#include "support/diagnostics.h"

namespace argo::ir {
namespace {

/// Builds a function, runs it on an empty environment, returns env.
Environment runFn(Function& fn, Environment env = {},
                  CountingMeter* meter = nullptr) {
  Evaluator evaluator(fn);
  evaluator.run(env, meter);
  return env;
}

TEST(Value, ZerosAndAccess) {
  Value v = Value::zeros(Type::array(ScalarKind::Float64, {3}));
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v.getFloat(2), 0.0);
  v.setFloat(1, 2.5);
  EXPECT_DOUBLE_EQ(v.getFloat(1), 2.5);
}

TEST(Value, IntValueConversions) {
  Value v = Value::scalarInt(7);
  EXPECT_EQ(v.getInt(), 7);
  EXPECT_DOUBLE_EQ(v.getFloat(), 7.0);
}

TEST(Value, ApproxEquals) {
  EXPECT_TRUE(Value::scalarFloat(1.0).approxEquals(
      Value::scalarFloat(1.0 + 1e-12)));
  EXPECT_FALSE(Value::scalarFloat(1.0).approxEquals(Value::scalarFloat(1.1)));
  EXPECT_FALSE(Value::scalarFloat(1.0).approxEquals(
      Value::zeros(Type::array(ScalarKind::Float64, {2}))));
}

TEST(Value, FloatsFactoryChecksSize) {
  EXPECT_THROW(
      Value::floats(Type::array(ScalarKind::Float64, {3}), {1.0}),
      support::ToolchainError);
}

TEST(Evaluator, FloatArithmetic) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(
      assign(ref("y"), add(mul(flt(2.0), flt(3.0)), div(flt(9.0), flt(2.0)))));
  const Environment env = runFn(fn);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 10.5);
}

TEST(Evaluator, IntegerDivisionTruncates) {
  Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("y"), div(lit(7), lit(2))));
  EXPECT_EQ(runFn(fn).at("y").getInt(), 3);
}

TEST(Evaluator, IntegerDivisionByZeroThrows) {
  Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("y"), div(lit(7), lit(0))));
  EXPECT_THROW(runFn(fn), support::ToolchainError);
}

TEST(Evaluator, IntegerOverflowThrowsNamingTheOperator) {
  // A result with no int64 value (ir::checkedIntOp) is a ToolchainError,
  // not a wrapped value or a SIGFPE.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto error = [](ExprPtr expr) -> std::string {
    Function fn("f");
    fn.declare("y", Type::int32(), VarRole::Output);
    fn.body().append(assign(ref("y"), std::move(expr)));
    try {
      (void)runFn(fn);
    } catch (const support::ToolchainError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error(add(lit(kMax), lit(1))), "integer overflow in +");
  EXPECT_EQ(error(sub(lit(kMin), lit(1))), "integer overflow in -");
  EXPECT_EQ(error(mul(lit(kMax), lit(2))), "integer overflow in *");
  EXPECT_EQ(error(div(lit(kMin), lit(-1))), "integer overflow in /");
  EXPECT_EQ(error(bin(BinOpKind::Mod, lit(kMin), lit(-1))),
            "integer overflow in %");
  EXPECT_EQ(error(neg(lit(kMin))), "integer overflow in -");
  EXPECT_EQ(error(un(UnOpKind::Abs, lit(kMin))), "integer overflow in abs");
  EXPECT_EQ(error(div(lit(7), lit(0))), "integer division by zero");
  EXPECT_EQ(error(bin(BinOpKind::Mod, lit(7), lit(0))),
            "integer modulo by zero");
  EXPECT_EQ(error(neg(lit(kMax))), "");
}

TEST(Evaluator, MixedPromotesToFloat) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(assign(ref("y"), div(lit(7), flt(2.0))));
  EXPECT_DOUBLE_EQ(runFn(fn).at("y").getFloat(), 3.5);
}

TEST(Evaluator, MinMaxModulo) {
  Function fn("f");
  fn.declare("a", Type::int32(), VarRole::Output);
  fn.declare("b", Type::float64(), VarRole::Output);
  fn.declare("c", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("a"), bin(BinOpKind::Min, lit(3), lit(-2))));
  fn.body().append(assign(ref("b"), bin(BinOpKind::Max, flt(3.5), flt(7.25))));
  fn.body().append(assign(ref("c"), bin(BinOpKind::Mod, lit(10), lit(4))));
  const Environment env = runFn(fn);
  EXPECT_EQ(env.at("a").getInt(), -2);
  EXPECT_DOUBLE_EQ(env.at("b").getFloat(), 7.25);
  EXPECT_EQ(env.at("c").getInt(), 2);
}

TEST(Evaluator, ComparisonsAndLogic) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  // y = (3 < 4 && !(2 >= 5)) ? 1 : 0
  fn.body().append(assign(
      ref("y"), select(bin(BinOpKind::And, lt(lit(3), lit(4)),
                           un(UnOpKind::Not, ge(lit(2), lit(5)))),
                       flt(1.0), flt(0.0))));
  EXPECT_DOUBLE_EQ(runFn(fn).at("y").getFloat(), 1.0);
}

TEST(Evaluator, ShortCircuitAvoidsDivByZero) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  // false && (1/0 > 0) must not evaluate the division.
  fn.body().append(assign(
      ref("y"), select(bin(BinOpKind::And, boolean(false),
                           bin(BinOpKind::Gt, div(lit(1), lit(0)), lit(0))),
                       flt(1.0), flt(0.0))));
  EXPECT_DOUBLE_EQ(runFn(fn).at("y").getFloat(), 0.0);
}

TEST(Evaluator, MathIntrinsics) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(assign(
      ref("y"), call("atan2", exprVec(flt(1.0), flt(1.0)))));
  EXPECT_NEAR(runFn(fn).at("y").getFloat(), std::atan2(1.0, 1.0), 1e-12);
}

TEST(Evaluator, UnknownIntrinsicThrows) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(assign(ref("y"), call("frobnicate", exprVec(flt(1.0)))));
  EXPECT_THROW(runFn(fn), support::ToolchainError);
}

TEST(Evaluator, UnaryOps) {
  Function fn("f");
  fn.declare("a", Type::float64(), VarRole::Output);
  fn.declare("b", Type::float64(), VarRole::Output);
  fn.declare("c", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("a"), sqrtE(flt(16.0))));
  fn.body().append(assign(ref("b"), un(UnOpKind::Floor, flt(2.9))));
  fn.body().append(assign(ref("c"), un(UnOpKind::ToInt, flt(2.9))));
  const Environment env = runFn(fn);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(), 4.0);
  EXPECT_DOUBLE_EQ(env.at("b").getFloat(), 2.0);
  EXPECT_EQ(env.at("c").getInt(), 2);
}

TEST(Evaluator, LoopAccumulates) {
  Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("y"), lit(0)));
  auto body = block();
  body->append(assign(ref("y"), add(var("y"), var("i"))));
  fn.body().append(forLoop("i", 0, 5, std::move(body)));
  EXPECT_EQ(runFn(fn).at("y").getInt(), 10);
}

TEST(Evaluator, StridedLoop) {
  Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(assign(ref("y"), lit(0)));
  auto body = block();
  body->append(assign(ref("y"), add(var("y"), lit(1))));
  fn.body().append(forLoop("i", 0, 10, std::move(body), 3));
  EXPECT_EQ(runFn(fn).at("y").getInt(), 4);
}

TEST(Evaluator, TwoDimensionalIndexing) {
  Function fn("f");
  fn.declare("m", Type::array(ScalarKind::Float64, {2, 3}), VarRole::Output);
  auto inner = block();
  inner->append(assign(ref("m", exprVec(var("r"), var("c"))),
                       add(mul(var("r"), lit(10)), var("c"))));
  auto outer = block();
  outer->append(forLoop("c", 0, 3, std::move(inner)));
  fn.body().append(forLoop("r", 0, 2, std::move(outer)));
  const Environment env = runFn(fn);
  EXPECT_DOUBLE_EQ(env.at("m").getFloat(0 * 3 + 0), 0.0);
  EXPECT_DOUBLE_EQ(env.at("m").getFloat(1 * 3 + 2), 12.0);
}

TEST(Evaluator, OutOfBoundsThrows) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {3}), VarRole::Output);
  fn.body().append(assign(ref("a", exprVec(lit(3))), flt(1.0)));
  EXPECT_THROW(runFn(fn), support::ToolchainError);
}

TEST(Evaluator, NegativeIndexThrows) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {3}), VarRole::Output);
  fn.body().append(assign(ref("a", exprVec(lit(-1))), flt(1.0)));
  EXPECT_THROW(runFn(fn), support::ToolchainError);
}

TEST(Evaluator, MissingInputThrows) {
  Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(assign(ref("y"), var("x")));
  Evaluator evaluator(fn);
  Environment env;
  EXPECT_THROW(evaluator.run(env), support::ToolchainError);
}

TEST(Evaluator, IfTakesCorrectBranch) {
  Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  auto thenB = block();
  thenB->append(assign(ref("y"), flt(1.0)));
  auto elseB = block();
  elseB->append(assign(ref("y"), flt(-1.0)));
  fn.body().append(ifStmt(ge(var("x"), flt(0.0)), std::move(thenB),
                          std::move(elseB)));
  Environment env;
  env["x"] = Value::scalarFloat(5.0);
  Evaluator evaluator(fn);
  evaluator.run(env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 1.0);
  env["x"] = Value::scalarFloat(-5.0);
  evaluator.run(env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), -1.0);
}

TEST(Evaluator, StatePersistsAcrossRuns) {
  Function fn("f");
  fn.declare("s", Type::float64(), VarRole::State);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(assign(ref("y"), var("s")));
  fn.body().append(assign(ref("s"), add(var("s"), flt(1.0))));
  Evaluator evaluator(fn);
  Environment env;
  evaluator.run(env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 0.0);
  evaluator.run(env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 1.0);
  evaluator.run(env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 2.0);
}

TEST(Meter, CountsOpsAndAccesses) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {4}), VarRole::Input,
             Storage::Shared);
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  fn.body().append(assign(ref("y"), flt(0.0)));
  auto body = block();
  body->append(assign(ref("y"), add(var("y"), ref("a", exprVec(var("i"))))));
  fn.body().append(forLoop("i", 0, 4, std::move(body)));

  CountingMeter meter;
  Environment env;
  env["a"] = Value::zeros(Type::array(ScalarKind::Float64, {4}));
  Evaluator(fn).run(env, &meter);
  EXPECT_EQ(meter.reads(Storage::Shared), 4);
  EXPECT_EQ(meter.reads(Storage::Local), 4);   // y read per iteration
  EXPECT_EQ(meter.writes(Storage::Local), 5);  // init + 4 updates
  EXPECT_EQ(meter.ops()[OpClass::LoopStep], 4);
  EXPECT_EQ(meter.ops()[OpClass::Branch], 1);  // loop exit
  EXPECT_EQ(meter.ops()[OpClass::FloatAdd], 4);
}

TEST(Meter, SelectMetersOnlyTakenArm) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  fn.body().append(assign(
      ref("y"), select(boolean(true), sqrtE(flt(4.0)), sqrtE(flt(9.0)))));
  CountingMeter meter;
  Environment env;
  Evaluator(fn).run(env, &meter);
  EXPECT_EQ(meter.ops()[OpClass::FloatDiv], 1);  // one sqrt, not two
  EXPECT_EQ(meter.ops()[OpClass::Select], 1);
}

TEST(Evaluator, MakeZeroEnvironmentCoversDecls) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {4}), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  const Environment env = makeZeroEnvironment(fn);
  EXPECT_EQ(env.size(), 2u);
  EXPECT_EQ(env.at("a").size(), 4);
}

TEST(Evaluator, RunStmtSingleStatement) {
  Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  const StmtPtr stmt = assign(ref("y"), flt(3.5));
  Environment env;
  Evaluator(fn).runStmt(*stmt, env);
  EXPECT_DOUBLE_EQ(env.at("y").getFloat(), 3.5);
}

}  // namespace
}  // namespace argo::ir
