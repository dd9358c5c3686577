// Unit tests for IR types, expressions, statements, functions, printer.
#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.h"
#include "ir/function.h"
#include "ir/printer.h"
#include "support/diagnostics.h"

namespace argo::ir {
namespace {

TEST(Type, ScalarBasics) {
  const Type t = Type::float64();
  EXPECT_TRUE(t.isScalar());
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.elementCount(), 1);
  EXPECT_EQ(t.byteSize(), 8);
  EXPECT_EQ(t.str(), "f64");
}

TEST(Type, ArrayBasics) {
  const Type t = Type::array(ScalarKind::Int32, {4, 8});
  EXPECT_FALSE(t.isScalar());
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.elementCount(), 32);
  EXPECT_EQ(t.byteSize(), 128);
  EXPECT_EQ(t.str(), "i32[4][8]");
}

TEST(Type, Equality) {
  EXPECT_EQ(Type::float64(), Type::float64());
  EXPECT_NE(Type::float64(), Type::int32());
  EXPECT_NE(Type::array(ScalarKind::Float64, {4}),
            Type::array(ScalarKind::Float64, {5}));
}

TEST(Type, ScalarByteSizes) {
  EXPECT_EQ(scalarByteSize(ScalarKind::Bool), 1);
  EXPECT_EQ(scalarByteSize(ScalarKind::Int32), 4);
  EXPECT_EQ(scalarByteSize(ScalarKind::Float64), 8);
}

TEST(Expr, LiteralValues) {
  EXPECT_EQ(cast<IntLit>(*lit(42)).value(), 42);
  EXPECT_DOUBLE_EQ(cast<FloatLit>(*flt(2.5)).value(), 2.5);
  EXPECT_TRUE(cast<BoolLit>(*boolean(true)).value());
}

TEST(Expr, IsaDynCast) {
  const ExprPtr e = lit(1);
  EXPECT_TRUE(isa<IntLit>(*e));
  EXPECT_FALSE(isa<FloatLit>(*e));
  EXPECT_NE(dynCast<IntLit>(*e), nullptr);
  EXPECT_EQ(dynCast<FloatLit>(*e), nullptr);
}

TEST(Expr, CloneIsDeep) {
  const ExprPtr original =
      add(mul(var("a"), flt(2.0)), ref("b", exprVec(var("i"))));
  const ExprPtr copy = original->clone();
  EXPECT_NE(original.get(), copy.get());
  EXPECT_EQ(toString(*original), toString(*copy));
}

TEST(Expr, BinOpNames) {
  EXPECT_STREQ(binOpName(BinOpKind::Add), "+");
  EXPECT_STREQ(binOpName(BinOpKind::Le), "<=");
  EXPECT_STREQ(binOpName(BinOpKind::Min), "min");
}

TEST(Expr, Classification) {
  EXPECT_TRUE(isComparison(BinOpKind::Lt));
  EXPECT_FALSE(isComparison(BinOpKind::Add));
  EXPECT_TRUE(isLogical(BinOpKind::And));
  EXPECT_FALSE(isLogical(BinOpKind::Eq));
}

TEST(Expr, CheckedIntOpHasNoValueWhereCIsUndefined) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(checkedIntOp(BinOpKind::Add, kMax - 1, 1), kMax);
  EXPECT_EQ(checkedIntOp(BinOpKind::Add, kMax, 1), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Sub, kMin, 1), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Mul, kMax, -1), -kMax);
  EXPECT_EQ(checkedIntOp(BinOpKind::Mul, kMin, -1), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Div, -7, 2), -3);
  EXPECT_EQ(checkedIntOp(BinOpKind::Div, kMin, -1), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Div, 7, 0), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Mod, -7, 2), -1);
  EXPECT_EQ(checkedIntOp(BinOpKind::Mod, kMin, -1), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Mod, 7, 0), std::nullopt);
  EXPECT_EQ(checkedIntOp(BinOpKind::Min, kMin, kMax), kMin);
  EXPECT_EQ(checkedIntOp(BinOpKind::Max, kMin, kMax), kMax);
  EXPECT_EQ(checkedIntOp(BinOpKind::Lt, 1, 2), std::nullopt);
  EXPECT_EQ(checkedIntOp(UnOpKind::Neg, kMax), -kMax);
  EXPECT_EQ(checkedIntOp(UnOpKind::Neg, kMin), std::nullopt);
  EXPECT_EQ(checkedIntOp(UnOpKind::Abs, -5), 5);
  EXPECT_EQ(checkedIntOp(UnOpKind::Abs, kMin), std::nullopt);
  EXPECT_EQ(checkedIntOp(UnOpKind::Not, 0), std::nullopt);
}

TEST(Stmt, ForTripCount) {
  const StmtPtr s = forLoop("i", 0, 10, block());
  EXPECT_EQ(cast<For>(*s).tripCount(), 10);
  const StmtPtr strided = forLoop("i", 0, 10, block(), 3);
  EXPECT_EQ(cast<For>(*strided).tripCount(), 4);  // 0,3,6,9
  const StmtPtr empty = forLoop("i", 5, 5, block());
  EXPECT_EQ(cast<For>(*empty).tripCount(), 0);
  // Ranges of INT64_MAX values or more: their counts come from the
  // unsigned span.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const StmtPtr half = forLoop("i", 0, kMax, block(), 2);
  EXPECT_EQ(cast<For>(*half).tripCount(), std::int64_t{1} << 62);
  const StmtPtr widest = forLoop("i", kMin, kMax, block(), 2);
  EXPECT_EQ(cast<For>(*widest).iterations(), std::uint64_t{1} << 63);
  EXPECT_EQ(cast<For>(*widest).tripCount(), kMax);
  const StmtPtr full = forLoop("i", kMin, -1, block());
  EXPECT_EQ(cast<For>(*full).tripCount(), kMax);
}

TEST(Stmt, CloneKeepsLabel) {
  StmtPtr s = assign(ref("x"), lit(1));
  s->label = "taskA";
  const StmtPtr copy = s->clone();
  EXPECT_EQ(copy->label, "taskA");
}

TEST(Stmt, CloneLoopIsDeep) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  StmtPtr loop = forLoop("i", 0, 4, std::move(body));
  const StmtPtr copy = loop->clone();
  // Mutating the copy's bounds must not affect the original.
  cast<For>(*copy).setBounds(0, 2);
  EXPECT_EQ(cast<For>(*loop).tripCount(), 4);
  EXPECT_EQ(cast<For>(*copy).tripCount(), 2);
}

TEST(Function, DeclareAndLookup) {
  Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  EXPECT_NE(fn.find("x"), nullptr);
  EXPECT_EQ(fn.find("z"), nullptr);
  EXPECT_EQ(fn.lookup("y").role, VarRole::Output);
  EXPECT_THROW((void)fn.lookup("z"), support::ToolchainError);
}

TEST(Function, DuplicateDeclarationThrows) {
  Function fn("f");
  fn.declare("x", Type::float64());
  EXPECT_THROW(fn.declare("x", Type::int32()), support::ToolchainError);
}

TEST(Function, StorageBytes) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {10}), VarRole::Temp,
             Storage::Shared);
  fn.declare("b", Type::float64(), VarRole::Temp, Storage::Scratchpad);
  EXPECT_EQ(fn.storageBytes(Storage::Shared), 80);
  EXPECT_EQ(fn.storageBytes(Storage::Scratchpad), 8);
  EXPECT_EQ(fn.storageBytes(Storage::Local), 0);
}

TEST(Function, CloneIsIndependent) {
  Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Output);
  fn.body().append(assign(ref("x"), flt(1.0)));
  const auto copy = fn.clone();
  EXPECT_EQ(copy->name(), "f");
  EXPECT_EQ(copy->body().size(), 1u);
  fn.body().append(assign(ref("x"), flt(2.0)));
  EXPECT_EQ(copy->body().size(), 1u);
}

TEST(Validate, AcceptsWellFormed) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  auto body = block();
  body->append(assign(ref("y"), lit(0)));
  body->append(assign(ref("y"), add(var("y"), ref("a", exprVec(var("i"))))));
  fn.body().append(forLoop("i", 0, 8, std::move(body)));
  // The first assign is outside the loop in well-formed code; rebuild:
  Function ok("ok");
  ok.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  ok.declare("y", Type::float64(), VarRole::Output);
  ok.body().append(assign(ref("y"), lit(0)));
  auto loopBody = block();
  loopBody->append(
      assign(ref("y"), add(var("y"), ref("a", exprVec(var("i"))))));
  ok.body().append(forLoop("i", 0, 8, std::move(loopBody)));
  EXPECT_TRUE(validate(ok).empty());
}

TEST(Validate, RejectsUndeclared) {
  Function fn("f");
  fn.body().append(assign(ref("nope"), lit(1)));
  const auto problems = validate(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("undeclared"), std::string::npos);
}

TEST(Validate, RejectsRankMismatch) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {4, 4}), VarRole::Temp);
  fn.body().append(assign(ref("a", exprVec(lit(0))), lit(1)));
  EXPECT_FALSE(validate(fn).empty());
}

TEST(Validate, RejectsWholeArrayRef) {
  Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {4}), VarRole::Temp);
  fn.declare("y", Type::float64(), VarRole::Temp);
  fn.body().append(assign(ref("y"), var("a")));
  EXPECT_FALSE(validate(fn).empty());
}

TEST(Validate, RejectsWriteToInputAndConst) {
  Function fn("f");
  fn.declare("in", Type::float64(), VarRole::Input);
  fn.declare("k", Type::float64(), VarRole::Const);
  fn.body().append(assign(ref("in"), lit(1)));
  fn.body().append(assign(ref("k"), lit(1)));
  EXPECT_EQ(validate(fn).size(), 2u);
}

TEST(Validate, RejectsLoopVarShadowing) {
  Function fn("f");
  fn.declare("i", Type::int32(), VarRole::Temp);
  fn.body().append(forLoop("i", 0, 3, block()));
  EXPECT_FALSE(validate(fn).empty());
}

TEST(Validate, RejectsNestedLoopVarReuse) {
  Function fn("f");
  auto inner = block();
  inner->append(forLoop("i", 0, 2, block()));
  fn.body().append(forLoop("i", 0, 3, std::move(inner)));
  EXPECT_FALSE(validate(fn).empty());
}

TEST(Validate, RejectsAssignToLoopVar) {
  Function fn("f");
  auto body = block();
  body->append(assign(ref("i"), lit(0)));
  fn.body().append(forLoop("i", 0, 3, std::move(body)));
  EXPECT_FALSE(validate(fn).empty());
}

TEST(Validate, RejectsLoopOfMoreThanInt64MaxIterations) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  Function fn("f");
  fn.body().append(forLoop("i", kMin, 1, block()));  // 2^63 + 1 iterations
  fn.body().append(forLoop("j", kMin, -1, block()));  // INT64_MAX: valid
  EXPECT_EQ(validate(fn), std::vector<std::string>{
                              "loop 'i' runs more than INT64_MAX iterations"});
}

TEST(Printer, RendersExpressionS) {
  EXPECT_EQ(toString(*add(var("a"), lit(1))), "(a + 1)");
  EXPECT_EQ(toString(*bin(BinOpKind::Min, var("a"), var("b"))), "min(a, b)");
  EXPECT_EQ(toString(*select(lt(var("a"), lit(0)), flt(1.0), flt(2.0))),
            "((a < 0) ? 1 : 2)");
  EXPECT_EQ(toString(*ref("m", exprVec(var("i"), lit(3)))), "m[i][3]");
}

TEST(Printer, RendersLoopAndIf) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  const StmtPtr loop = forLoop("i", 0, 4, std::move(body));
  const std::string text = toString(*loop);
  EXPECT_NE(text.find("for (i = 0; i < 4; i++)"), std::string::npos);
  EXPECT_NE(text.find("a[i] = i;"), std::string::npos);
}

TEST(Printer, RendersFunctionHeader) {
  Function fn("demo");
  fn.declare("x", Type::float64(), VarRole::Input);
  const std::string text = toString(fn);
  EXPECT_NE(text.find("function demo"), std::string::npos);
  EXPECT_NE(text.find("in f64 x"), std::string::npos);
}

}  // namespace
}  // namespace argo::ir
