// Unit tests for the transformation passes: behaviour, legality guards,
// and semantics preservation.
#include <gtest/gtest.h>

#include <limits>

#include "ir/evaluator.h"
#include "ir/printer.h"
#include "testutil.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"
#include "transform/spm_alloc.h"

namespace argo::transform {
namespace {

using ir::ScalarKind;
using ir::Storage;
using ir::Type;
using ir::VarRole;

int countTopLevelLoops(const ir::Function& fn) {
  int count = 0;
  for (const ir::StmtPtr& s : fn.body().stmts()) {
    if (ir::isa<ir::For>(*s)) ++count;
  }
  return count;
}

TEST(ConstFold, FoldsLiteralArithmetic) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(
      ir::ref("y"), ir::add(ir::mul(ir::lit(2), ir::lit(3)), ir::lit(4))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = 10;\n");
}

TEST(ConstFold, FoldsIdentities) {
  ir::Function fn("f");
  fn.declare("x", Type::float64(), VarRole::Input);
  fn.declare("y", Type::float64(), VarRole::Output);
  // y = (x + 0) * 1
  fn.body().append(ir::assign(
      ir::ref("y"), ir::mul(ir::add(ir::var("x"), ir::lit(0)), ir::lit(1))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = x;\n");
}

TEST(ConstFold, FoldsScilabIndexAdjustment) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  // a[(i + 1) - 1] = 0 — the classic 1-based adjustment residue.
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::sub(ir::add(ir::var("i"), ir::lit(1)),
                                       ir::lit(1)))),
      ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  const std::string text = ir::toString(fn);
  EXPECT_NE(text.find("a[i] = 0;"), std::string::npos);
}

TEST(ConstFold, KeepsDivisionByZeroForRuntime) {
  ir::Function fn("f");
  fn.declare("y", Type::int32(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::div(ir::lit(1), ir::lit(0))));
  ConstantFolding pass;
  EXPECT_FALSE(pass.run(fn));  // untouched
}

TEST(ConstFold, KeepsArithmeticWithoutAnInt64ValueForRuntime) {
  // ir::checkedIntOp has no value for these, so folding leaves them as
  // they are instead of wrapping or raising SIGFPE.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<ir::ExprPtr> exprs;
  exprs.push_back(ir::div(ir::lit(kMin), ir::lit(-1)));
  exprs.push_back(ir::bin(ir::BinOpKind::Mod, ir::lit(kMin), ir::lit(-1)));
  exprs.push_back(ir::add(ir::lit(kMax), ir::lit(1)));
  exprs.push_back(ir::sub(ir::lit(kMin), ir::lit(1)));
  exprs.push_back(ir::mul(ir::lit(kMax), ir::lit(2)));
  exprs.push_back(ir::neg(ir::lit(kMin)));
  // (x + c1) + c2 is reassociated only when c1 + c2 fits.
  exprs.push_back(ir::add(ir::add(ir::var("x"), ir::lit(kMax)), ir::lit(1)));
  exprs.push_back(ir::sub(ir::sub(ir::var("x"), ir::lit(1)), ir::lit(kMax)));
  for (ir::ExprPtr& expr : exprs) {
    const std::string before = ir::toString(*expr);
    ir::Function fn("f");
    fn.declare("x", Type::int32(), VarRole::Input);
    fn.declare("y", Type::int32(), VarRole::Output);
    fn.body().append(ir::assign(ir::ref("y"), std::move(expr)));
    ConstantFolding pass;
    EXPECT_FALSE(pass.run(fn)) << before;
  }
}

TEST(ConstFold, FoldsSelectOnLiteralCondition) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(
      ir::ref("y"), ir::select(ir::boolean(true), ir::flt(1.0),
                               ir::flt(2.0))));
  ConstantFolding pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(ir::toString(*fn.body().stmts()[0]), "y = 1;\n");
}

TEST(Fusion, MergesAdjacentIndependentLoops) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("b", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("j"))),
                           ir::flt(2.0)));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  LoopFusion pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 1);
  EXPECT_TRUE(ir::validate(fn).empty());
  // Fused body executes both statements.
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(7), 1.0);
  EXPECT_DOUBLE_EQ(env.at("b").getFloat(7), 2.0);
}

TEST(Fusion, RefusesConflictingBodies) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  // Reads a shifted: interleaving would observe partial writes.
  body2->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::var("j"))),
      ir::add(ir::ref("a", ir::exprVec(ir::var("j"))), ir::flt(1.0))));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  LoopFusion pass;
  EXPECT_FALSE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 2);
}

TEST(Fusion, RefusesDifferentRanges) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("b", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  auto body2 = ir::block();
  body2->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("j"))), ir::flt(2.0)));
  fn.body().append(ir::forLoop("j", 0, 4, std::move(body2)));
  LoopFusion pass;
  EXPECT_FALSE(pass.run(fn));
}

TEST(Fusion, PreservesSemanticsOnRandomLoopPairs) {
  // Two adjacent loops over one random range and step: the first writes
  // a, the second b, both from the input u at random clamped offsets, so
  // the bodies never conflict and fusion must fire on every pair. The
  // second loop reuses the first one's variable or renames it.
  constexpr std::int64_t kLen = 12;
  const Type vec = Type::array(ScalarKind::Float64, {kLen});
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng rng(seed);
    // u[min(max(v + offset, 0), kLen - 1)] * coefficient
    auto element = [&](const std::string& v) {
      ir::ExprPtr index = ir::bin(
          ir::BinOpKind::Min, ir::lit(kLen - 1),
          ir::bin(ir::BinOpKind::Max, ir::lit(0),
                  ir::add(ir::var(v), ir::lit(rng.uniformInt(-2, 2)))));
      return ir::mul(ir::ref("u", ir::exprVec(std::move(index))),
                     ir::flt(rng.uniformDouble() * 2.0 - 1.0));
    };
    const std::int64_t lower = rng.uniformInt(0, 4);
    const std::int64_t upper = rng.uniformInt(lower + 1, kLen);
    const std::int64_t step = rng.uniformInt(1, 2);
    const std::string second = rng.chance(0.5) ? "i" : "j";

    ir::Function fn("f");
    fn.declare("u", vec, VarRole::Input);
    fn.declare("a", vec, VarRole::Output);
    fn.declare("b", vec, VarRole::Output);
    auto body1 = ir::block();
    body1->append(
        ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), element("i")));
    fn.body().append(
        ir::forLoop("i", lower, upper, std::move(body1), step));
    auto thenB = ir::block();
    thenB->append(ir::assign(ir::ref("b", ir::exprVec(ir::var(second))),
                             element(second)));
    auto elseB = ir::block();
    elseB->append(ir::assign(
        ir::ref("b", ir::exprVec(ir::var(second))),
        ir::add(element(second), element(second))));
    auto body2 = ir::block();
    body2->append(ir::ifStmt(
        ir::lt(ir::var(second), ir::lit(rng.uniformInt(lower, upper))),
        std::move(thenB), std::move(elseB)));
    fn.body().append(
        ir::forLoop(second, lower, upper, std::move(body2), step));

    auto reference = fn.clone();
    LoopFusion pass;
    EXPECT_TRUE(pass.run(fn)) << "seed " << seed;
    EXPECT_EQ(countTopLevelLoops(fn), 1) << "seed " << seed;
    ASSERT_TRUE(ir::validate(fn).empty()) << "seed " << seed;
    ir::Environment envA = ir::makeZeroEnvironment(*reference);
    for (std::int64_t k = 0; k < kLen; ++k) {
      envA.at("u").setFloat(k, rng.uniformDouble() * 4.0 - 2.0);
    }
    ir::Environment envB = envA;
    ir::Evaluator(*reference).run(envA);
    ir::Evaluator(fn).run(envB);
    EXPECT_TRUE(envA.at("a").approxEquals(envB.at("a"))) << "seed " << seed;
    EXPECT_TRUE(envA.at("b").approxEquals(envB.at("b"))) << "seed " << seed;
  }
}

TEST(IndexSplit, SplitsGuardedLoop) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(2.0)));
  auto body = ir::block();
  body->append(ir::ifStmt(ir::lt(ir::var("i"), ir::lit(3)), std::move(thenB),
                          std::move(elseB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(countTopLevelLoops(fn), 2);
  EXPECT_TRUE(ir::validate(fn).empty());
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(2), 1.0);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(3), 2.0);
}

TEST(IndexSplit, HandlesGeAndClampsSplitPoint) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto body = ir::block();
  body->append(
      ir::ifStmt(ir::ge(ir::var("i"), ir::lit(100)), std::move(thenB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_TRUE(pass.run(fn));
  // Condition never true in range: the then-loop vanishes, the else part
  // is empty, so nothing is left (or a single empty-body low loop).
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("a").getFloat(5), 0.0);
}

TEST(IndexSplit, IgnoresDataDependentConditions) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
  fn.declare("x", Type::float64(), VarRole::Input);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))), ir::flt(1.0)));
  auto body = ir::block();
  body->append(ir::ifStmt(ir::lt(ir::var("x"), ir::flt(3.0)), std::move(thenB)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  IndexSetSplitting pass;
  EXPECT_FALSE(pass.run(fn));
}

TEST(IndexSplit, PreservesSemanticsOnRandomSplitPoints) {
  for (std::int64_t split = -2; split <= 10; ++split) {
    ir::Function fn("f");
    fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Output);
    auto thenB = ir::block();
    thenB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                             ir::flt(1.0)));
    auto elseB = ir::block();
    elseB->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                             ir::flt(2.0)));
    auto body = ir::block();
    body->append(ir::ifStmt(ir::bin(ir::BinOpKind::Le, ir::var("i"),
                                    ir::lit(split)),
                            std::move(thenB), std::move(elseB)));
    fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));

    auto reference = fn.clone();
    IndexSetSplitting pass;
    pass.run(fn);
    ASSERT_TRUE(ir::validate(fn).empty()) << "split " << split;
    ir::Environment envA = ir::makeZeroEnvironment(*reference);
    ir::Environment envB = envA;
    ir::Evaluator(*reference).run(envA);
    ir::Evaluator(fn).run(envB);
    EXPECT_TRUE(envA.at("a").approxEquals(envB.at("a"))) << "split " << split;
  }
}

TEST(SpmAlloc, CountsWorstCaseAccesses) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  const auto counts = worstCaseAccessCounts(fn);
  EXPECT_EQ(counts.at("a"), 8);
}

TEST(SpmAlloc, CountsConditionalOnBothArms) {
  ir::Function fn("f");
  fn.declare("a", Type::float64(), VarRole::Temp);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("a"), ir::flt(1.0)));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("a"), ir::flt(2.0)));
  fn.body().append(
      ir::ifStmt(ir::boolean(true), std::move(thenB), std::move(elseB)));
  // Worst case counts both arms (sound upper bound).
  EXPECT_EQ(worstCaseAccessCounts(fn).at("a"), 2);
}

TEST(SpmAlloc, DemotesHotReadOnlyData) {
  ir::Function fn("f");
  fn.declare("table", Type::array(ScalarKind::Float64, {16}), VarRole::Const);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("y"),
      ir::add(ir::var("y"), ir::ref("table", ir::exprVec(ir::var("i"))))));
  fn.body().append(ir::forLoop("i", 0, 16, std::move(body)));
  ScratchpadAllocation pass(/*capacity=*/1024, /*shared=*/10, /*spm=*/1);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(fn.lookup("table").storage, Storage::Scratchpad);
  EXPECT_EQ(fn.lookup("y").storage, Storage::Shared);  // Output stays shared
  EXPECT_EQ(pass.report().demoted.size(), 1u);
  EXPECT_GT(pass.report().estimatedSaving, 0);
}

TEST(SpmAlloc, RespectsCapacity) {
  ir::Function fn("f");
  fn.declare("big", Type::array(ScalarKind::Float64, {1024}), VarRole::Const);
  fn.declare("small", Type::array(ScalarKind::Float64, {4}), VarRole::Const);
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("y"),
      ir::add(ir::add(ir::var("y"),
                      ir::ref("big", ir::exprVec(ir::var("i")))),
              ir::ref("small", ir::exprVec(ir::bin(ir::BinOpKind::Mod,
                                                   ir::var("i"), ir::lit(4)))))));
  fn.body().append(ir::forLoop("i", 0, 1024, std::move(body)));
  ScratchpadAllocation pass(/*capacity=*/64, /*shared=*/10, /*spm=*/1);
  EXPECT_TRUE(pass.run(fn));
  EXPECT_EQ(fn.lookup("big").storage, Storage::Shared);  // does not fit
  EXPECT_EQ(fn.lookup("small").storage, Storage::Scratchpad);
}

TEST(SpmAlloc, SkipsMultiNodeWrittenVariables) {
  ir::Function fn("f");
  fn.declare("shared_tmp", Type::array(ScalarKind::Float64, {8}),
             VarRole::Temp);
  // Written by one top-level loop, read by another: must stay shared.
  auto body1 = ir::block();
  body1->append(ir::assign(ir::ref("shared_tmp", ir::exprVec(ir::var("i"))),
                           ir::flt(1.0)));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body1)));
  fn.declare("y", Type::float64(), VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  auto body2 = ir::block();
  body2->append(ir::assign(
      ir::ref("y"), ir::add(ir::var("y"),
                            ir::ref("shared_tmp", ir::exprVec(ir::var("j"))))));
  fn.body().append(ir::forLoop("j", 0, 8, std::move(body2)));
  ScratchpadAllocation pass(/*capacity=*/4096, /*shared=*/10, /*spm=*/1);
  pass.run(fn);
  EXPECT_EQ(fn.lookup("shared_tmp").storage, Storage::Shared);
}

TEST(SpmAlloc, NoGainNoChange) {
  ir::Function fn("f");
  fn.declare("t", Type::array(ScalarKind::Float64, {4}), VarRole::Const);
  ScratchpadAllocation pass(/*capacity=*/4096, /*shared=*/1, /*spm=*/1);
  EXPECT_FALSE(pass.run(fn));
}


TEST(AllPasses, PreserveSemanticsOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    test::ProgramGenerator gen(seed * 7919);
    auto original = gen.generate("p");
    auto transformed = original->clone();

    ConstantFolding fold;
    LoopFusion fusion;
    IndexSetSplitting split;
    fold.run(*transformed);
    split.run(*transformed);
    fusion.run(*transformed);
    fold.run(*transformed);
    ASSERT_TRUE(ir::validate(*transformed).empty()) << "seed " << seed;

    ir::Environment envA = gen.makeInputs(*original);
    ir::Environment envB = envA;
    ir::Evaluator(*original).run(envA);
    ir::Evaluator(*transformed).run(envB);
    EXPECT_TRUE(test::outputsMatch(*original, envA, envB)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace argo::transform
