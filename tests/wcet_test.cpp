// Unit tests for the code-level WCET analyzers: timing schema, CFG/IPET
// engine, their agreement, and the soundness relation against the metered
// interpreter.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "adl/platform.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "wcet/analyzer.h"

namespace argo::wcet {
namespace {

using ir::ScalarKind;
using ir::Storage;
using ir::Type;
using ir::VarRole;

TimingModel xentiumModel() {
  const adl::Platform p = adl::makeRecoreXentiumBus(2);
  return TimingModel::forTile(p, 0);
}

/// Prices a metered run the way the simulator does, INCLUDING shared
/// accesses at their uncontended cost (matching the schema's pricing).
Cycles meteredCost(const ir::CountingMeter& meter, const TimingModel& model) {
  Cycles total = 0;
  for (int c = 0; c < ir::kOpClassCount; ++c) {
    const auto op = static_cast<ir::OpClass>(c);
    total += meter.ops()[op] * model.opCost(op);
  }
  for (Storage s : {Storage::Local, Storage::Scratchpad, Storage::Shared}) {
    total += (meter.reads(s) + meter.writes(s)) * model.accessCost(s);
  }
  return total;
}

TEST(TimingModel, AccessCostsOrdered) {
  const TimingModel model = xentiumModel();
  EXPECT_LE(model.accessCost(Storage::Local),
            model.accessCost(Storage::Scratchpad));
  EXPECT_LT(model.accessCost(Storage::Scratchpad),
            model.accessCost(Storage::Shared));
}

TEST(Schema, StraightLineIsSumOfCosts) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Shared);
  fn.body().append(ir::assign(ir::ref("y"), ir::flt(1.0)));
  const TimingModel model = xentiumModel();
  const WcetResult r = SchemaAnalyzer(fn, model).analyzeFunction();
  // One shared write, no ops.
  EXPECT_EQ(r.cycles, model.accessCost(Storage::Shared));
  EXPECT_EQ(r.sharedAccesses, 1);
}

TEST(Schema, LoopMultipliesBody) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {10}), VarRole::Output,
             Storage::Scratchpad);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 10, std::move(body)));
  const TimingModel model = xentiumModel();
  const WcetResult r = SchemaAnalyzer(fn, model).analyzeFunction();
  EXPECT_EQ(r.sharedAccesses, 0);  // scratchpad writes are not shared
  const Cycles perIter = model.accessCost(Storage::Scratchpad) +
                         model.opCost(ir::OpClass::LoopStep);
  EXPECT_EQ(r.cycles, 10 * perIter + model.opCost(ir::OpClass::Branch));
}

TEST(Schema, EmptyRangeLoopCostsOneBranch) {
  ir::Function fn("f");
  auto body = ir::block();
  fn.body().append(ir::forLoop("i", 5, 5, std::move(body)));
  const TimingModel model = xentiumModel();
  EXPECT_EQ(SchemaAnalyzer(fn, model).analyzeFunction().cycles,
            model.opCost(ir::OpClass::Branch));
}

TEST(Schema, IfTakesMaxArm) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  // then: one sqrt; else: empty. WCET must include the sqrt.
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("y"), ir::sqrtE(ir::flt(2.0))));
  fn.body().append(ir::ifStmt(ir::boolean(false), std::move(thenB)));
  const TimingModel model = xentiumModel();
  const WcetResult r = SchemaAnalyzer(fn, model).analyzeFunction();
  EXPECT_GE(r.cycles, model.opCost(ir::OpClass::FloatDiv));  // sqrt class
}

TEST(Schema, SelectChargesMaxArm) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  fn.body().append(ir::assign(
      ir::ref("y"), ir::select(ir::boolean(true), ir::flt(1.0),
                               ir::sqrtE(ir::flt(2.0)))));
  const TimingModel model = xentiumModel();
  const WcetResult r = SchemaAnalyzer(fn, model).analyzeFunction();
  EXPECT_GE(r.cycles, model.opCost(ir::OpClass::FloatDiv) +
                          model.opCost(ir::OpClass::Select));
}

TEST(Schema, IndexArithmeticMatchesInterpreterMetering) {
  // 2-D access: the analyzer must charge the same flattening ops the
  // interpreter meters.
  ir::Function fn("f");
  fn.declare("m", Type::array(ScalarKind::Float64, {4, 4}), VarRole::Output,
             Storage::Local);
  auto inner = ir::block();
  inner->append(ir::assign(
      ir::ref("m", ir::exprVec(ir::var("r"), ir::var("c"))), ir::flt(1.0)));
  auto outer = ir::block();
  outer->append(ir::forLoop("c", 0, 4, std::move(inner)));
  fn.body().append(ir::forLoop("r", 0, 4, std::move(outer)));

  const TimingModel model = xentiumModel();
  const WcetResult bound = SchemaAnalyzer(fn, model).analyzeFunction();

  ir::CountingMeter meter;
  ir::Environment env = ir::makeZeroEnvironment(fn);
  ir::Evaluator(fn).run(env, &meter);
  // Straight-line loop nest: bound is exact here.
  EXPECT_EQ(bound.cycles, meteredCost(meter, model));
}

TEST(Soundness, BoundDominatesMeteredExecution) {
  // Program with data-dependent branches: bound must be >= any metered run.
  ir::Function fn("f");
  fn.declare("x", Type::array(ScalarKind::Float64, {16}), VarRole::Input,
             Storage::Shared);
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Shared);
  fn.declare("t", Type::float64(), VarRole::Temp, Storage::Local);
  fn.body().append(ir::assign(ir::ref("t"), ir::flt(0.0)));
  auto thenB = ir::block();
  thenB->append(ir::assign(
      ir::ref("t"), ir::add(ir::var("t"),
                            ir::sqrtE(ir::ref("x", ir::exprVec(ir::var("i")))))));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("t"), ir::add(ir::var("t"), ir::flt(1.0))));
  auto body = ir::block();
  body->append(ir::ifStmt(
      ir::ge(ir::ref("x", ir::exprVec(ir::var("i"))), ir::flt(0.5)),
      std::move(thenB), std::move(elseB)));
  fn.body().append(ir::forLoop("i", 0, 16, std::move(body)));
  fn.body().append(ir::assign(ir::ref("y"), ir::var("t")));

  const TimingModel model = xentiumModel();
  const Cycles bound = SchemaAnalyzer(fn, model).analyzeFunction().cycles;

  support::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    ir::Environment env;
    ir::Value x = ir::Value::zeros(Type::array(ScalarKind::Float64, {16}));
    for (int i = 0; i < 16; ++i) x.setFloat(i, rng.uniformDouble());
    env["x"] = x;
    ir::CountingMeter meter;
    ir::Evaluator(fn).run(env, &meter);
    EXPECT_LE(meteredCost(meter, model), bound) << "trial " << trial;
  }
}

TEST(CfgEngine, AgreesWithSchemaOnStraightLine) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Shared);
  fn.body().append(ir::assign(ir::ref("y"), ir::mul(ir::flt(2.0), ir::flt(3.0))));
  fn.body().append(ir::assign(ir::ref("y"), ir::add(ir::var("y"), ir::flt(1.0))));
  const TimingModel model = xentiumModel();
  EXPECT_EQ(CfgAnalyzer(fn, model).analyzeFunction(),
            SchemaAnalyzer(fn, model).analyzeFunction().cycles);
}

TEST(CfgEngine, AgreesWithSchemaOnBranches) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  auto thenB = ir::block();
  thenB->append(ir::assign(ir::ref("y"), ir::sqrtE(ir::flt(2.0))));
  auto elseB = ir::block();
  elseB->append(ir::assign(ir::ref("y"), ir::flt(0.0)));
  elseB->append(ir::assign(ir::ref("y"), ir::add(ir::var("y"), ir::flt(1.0))));
  fn.body().append(
      ir::ifStmt(ir::boolean(true), std::move(thenB), std::move(elseB)));
  const TimingModel model = xentiumModel();
  EXPECT_EQ(CfgAnalyzer(fn, model).analyzeFunction(),
            SchemaAnalyzer(fn, model).analyzeFunction().cycles);
}

TEST(CfgEngine, AgreesWithSchemaOnLoopNests) {
  ir::Function fn("f");
  fn.declare("m", Type::array(ScalarKind::Float64, {6, 5}), VarRole::Output,
             Storage::Shared);
  auto inner = ir::block();
  inner->append(ir::assign(
      ir::ref("m", ir::exprVec(ir::var("r"), ir::var("c"))),
      ir::mul(ir::var("r"), ir::var("c"))));
  auto outer = ir::block();
  outer->append(ir::forLoop("c", 0, 5, std::move(inner)));
  fn.body().append(ir::forLoop("r", 0, 6, std::move(outer)));
  const TimingModel model = xentiumModel();
  EXPECT_EQ(CfgAnalyzer(fn, model).analyzeFunction(),
            SchemaAnalyzer(fn, model).analyzeFunction().cycles);
}

TEST(WcetResult, MaxMergesCounters) {
  const WcetResult a{10, 5};
  const WcetResult b{8, 9};
  const WcetResult m = WcetResult::max(a, b);
  EXPECT_EQ(m.cycles, 10);
  EXPECT_EQ(m.sharedAccesses, 9);  // per-counter max
}

/// The message `analyze` throws; empty when it returns.
template <typename Fn>
std::string errorOf(Fn&& analyze) {
  try {
    analyze();
  } catch (const support::ToolchainError& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kOverflow = "code-level WCET: bound exceeds int64";

TEST(WcetResult, SumOrProductBeyondInt64IsAnError) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  WcetResult sum{kMax - 1, 0};
  sum += WcetResult{1, 1};
  EXPECT_EQ(sum.cycles, kMax);
  EXPECT_EQ(errorOf([&] { sum += WcetResult{1, 0}; }), kOverflow);
  // The shared-access count is checked on its own: with free shared
  // accesses it can outgrow the cycles.
  WcetResult product{2, kMax / 2 + 1};
  EXPECT_EQ(errorOf([&] { product *= 2; }), kOverflow);
}

// A shared read, a shared write and a loop step per iteration, 2^62 - 1
// times: the bound leaves int64, in both engines.
TEST(Schema, TripCountTimesIterationBeyondInt64IsAnError) {
  ir::Function fn("f");
  fn.declare("u", Type::float64(), VarRole::Input, Storage::Shared);
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Shared);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("y"), ir::var("u")));
  fn.body().append(
      ir::forLoop("i", 1, std::int64_t{1} << 62, std::move(body)));
  const TimingModel model = xentiumModel();
  EXPECT_EQ(errorOf([&] { (void)SchemaAnalyzer(fn, model).analyzeFunction(); }),
            kOverflow);
  EXPECT_EQ(errorOf([&] { (void)CfgAnalyzer(fn, model).analyzeFunction(); }),
            kOverflow);
}

TEST(Heterogeneity, AcceleratorLowersMathHeavyWcet) {
  ir::Function fn("f");
  fn.declare("y", Type::float64(), VarRole::Output, Storage::Local);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("y"), ir::un(ir::UnOpKind::Sin,
                                               ir::var("y"))));
  fn.body().append(ir::forLoop("i", 0, 64, std::move(body)));
  const adl::Platform p = adl::makeKitLeon3Inoc(2, 2, /*accel=*/true);
  const Cycles onLeon =
      SchemaAnalyzer(fn, TimingModel::forTile(p, 0)).analyzeFunction().cycles;
  const Cycles onAccel =
      SchemaAnalyzer(fn, TimingModel::forTile(p, 3)).analyzeFunction().cycles;
  EXPECT_LT(onAccel, onLeon);
}

}  // namespace
}  // namespace argo::wcet
