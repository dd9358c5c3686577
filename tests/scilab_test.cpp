// Unit tests for the Scilab-subset front end: lexing, parsing, semantics,
// 1-based indexing, precedence, and error reporting.
#include <gtest/gtest.h>

#include <cmath>

#include "adl/platform.h"
#include "core/toolchain.h"
#include "ir/printer.h"
#include "model/blocks.h"
#include "model/diagram.h"
#include "model/scilab.h"
#include "mutants.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"

namespace argo::model {
namespace {

using ir::ScalarKind;
using ir::Type;
using scilab::PortSpec;
using support::ToolchainError;

/// Compiles a one-in/one-out Scilab block and evaluates it.
double runScalarScript(const std::string& source, double input) {
  Diagram d("t");
  const BlockId in = d.add<InputBlock>("u", Type::float64());
  const BlockId blk = d.add<ScilabBlock>(
      "s", source, std::vector<PortSpec>{{"u", Type::float64()}},
      std::vector<PortSpec>{{"y", Type::float64()}});
  const BlockId out = d.add<OutputBlock>("yout");
  d.connect(in, blk);
  d.connect(blk, out);
  CompiledModel model = d.compile();
  ir::Environment env = model.makeEnvironment();
  env["u"] = ir::Value::scalarFloat(input);
  ir::Evaluator(*model.fn).run(env);
  return env.at("yout").getFloat();
}

TEST(Scilab, SimpleAssignment) {
  EXPECT_DOUBLE_EQ(runScalarScript("y = u * 2.0 + 1.0\n", 3.0), 7.0);
}

TEST(Scilab, SemicolonSeparators) {
  EXPECT_DOUBLE_EQ(runScalarScript("t = u + 1.0; y = t * t\n", 2.0), 9.0);
}

TEST(Scilab, CommentsIgnored) {
  EXPECT_DOUBLE_EQ(
      runScalarScript("// doubles the input\ny = u * 2.0 // done\n", 2.0),
      4.0);
}

TEST(Scilab, OperatorPrecedence) {
  EXPECT_DOUBLE_EQ(runScalarScript("y = 2.0 + 3.0 * 4.0\n", 0.0), 14.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = (2.0 + 3.0) * 4.0\n", 0.0), 20.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = 10.0 - 4.0 - 3.0\n", 0.0), 3.0);
}

TEST(Scilab, PowerBindsTighterThanUnaryMinus) {
  // Scilab semantics: -x^2 == -(x^2).
  EXPECT_DOUBLE_EQ(runScalarScript("y = -u^2\n", 3.0), -9.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = exp(-u^2)\n", 2.0), std::exp(-4.0));
}

TEST(Scilab, PowerRightAssociativeAndGeneral) {
  EXPECT_DOUBLE_EQ(runScalarScript("y = 2.0^3.0\n", 0.0), 8.0);
  EXPECT_NEAR(runScalarScript("y = u^0.5\n", 16.0), 4.0, 1e-12);
}

TEST(Scilab, ComparisonAndLogic) {
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nif u > 1.0 & u < 3.0 then y = 1.0 end\n", 2.0),
      1.0);
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nif u < 1.0 | u > 3.0 then y = 1.0 end\n", 2.0),
      0.0);
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nif ~(u == 2.0) then y = 1.0 end\n", 2.0), 0.0);
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nif u ~= 2.0 then y = 1.0 end\n", 5.0), 1.0);
}

TEST(Scilab, IfElse) {
  const std::string src =
      "if u >= 0.0 then\n  y = 1.0\nelse\n  y = -1.0\nend\n";
  EXPECT_DOUBLE_EQ(runScalarScript(src, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(runScalarScript(src, -5.0), -1.0);
}

TEST(Scilab, ForLoopInclusiveRange) {
  // sum of 1..10 = 55.
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nfor i = 1:10\n  y = y + float(i)\nend\n", 0.0),
      55.0);
}

TEST(Scilab, ForLoopConstantExprBounds) {
  EXPECT_DOUBLE_EQ(
      runScalarScript("y = 0.0\nfor i = 1:2*3\n  y = y + 1.0\nend\n", 0.0),
      6.0);
}

TEST(Scilab, NonConstantLoopBoundRejected) {
  EXPECT_THROW(runScalarScript("for i = 1:u\n  y = 1.0\nend\n", 3.0),
               ToolchainError);
}

TEST(Scilab, LocalArraysAndOneBasedIndexing) {
  const std::string src =
      "local buf(4)\n"
      "for i = 1:4\n  buf(i) = float(i) * 10.0\nend\n"
      "y = buf(1) + buf(4)\n";
  EXPECT_DOUBLE_EQ(runScalarScript(src, 0.0), 50.0);
}

TEST(Scilab, TwoDimensionalLocals) {
  const std::string src =
      "local m(2,3)\n"
      "for r = 1:2\n  for c = 1:3\n    m(r,c) = float(r*10 + c)\n  end\nend\n"
      "y = m(2,3)\n";
  EXPECT_DOUBLE_EQ(runScalarScript(src, 0.0), 23.0);
}

TEST(Scilab, ImplicitScalarLocals) {
  EXPECT_DOUBLE_EQ(runScalarScript("t = u + 1.0\ny = t * 2.0\n", 2.0), 6.0);
}

TEST(Scilab, MathIntrinsics) {
  EXPECT_NEAR(runScalarScript("y = sin(u)\n", 0.5), std::sin(0.5), 1e-12);
  EXPECT_NEAR(runScalarScript("y = atan2(u, 2.0)\n", 1.0),
              std::atan2(1.0, 2.0), 1e-12);
  EXPECT_NEAR(runScalarScript("y = hypot(u, 4.0)\n", 3.0), 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(runScalarScript("y = min(u, 2.0)\n", 5.0), 2.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = max(u, 2.0)\n", 5.0), 5.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = abs(u)\n", -3.0), 3.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = floor(u)\n", 2.9), 2.0);
  EXPECT_NEAR(runScalarScript("y = modulo(u, 3.0)\n", 7.0), 1.0, 1e-12);
}

TEST(Scilab, PiConstant) {
  EXPECT_NEAR(runScalarScript("y = cos(pi)\n", 0.0), -1.0, 1e-12);
}

TEST(Scilab, ScientificNotation) {
  EXPECT_DOUBLE_EQ(runScalarScript("y = 1.5e2 + u\n", 0.0), 150.0);
  EXPECT_DOUBLE_EQ(runScalarScript("y = 2E-2\n", 0.0), 0.02);
}

TEST(Scilab, ErrorsCarryLineNumbers) {
  try {
    (void)scilab::parseScript("y = 1.0\nz = $bad\n",
                              {{"y", Type::float64()}});
    FAIL() << "expected ToolchainError";
  } catch (const ToolchainError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Scilab, UnknownVariableRejected) {
  EXPECT_THROW(
      (void)scilab::parseScript("y = nope\n", {{"y", Type::float64()}}),
      ToolchainError);
}

TEST(Scilab, IndexedWriteToUndeclaredRejected) {
  EXPECT_THROW(
      (void)scilab::parseScript("arr(3) = 1.0\n", {{"y", Type::float64()}}),
      ToolchainError);
}

TEST(Scilab, DuplicateLocalRejected) {
  EXPECT_THROW((void)scilab::parseScript("local t\nlocal t\n",
                                         {{"y", Type::float64()}}),
               ToolchainError);
}

TEST(Scilab, LocalShadowingPortRejected) {
  EXPECT_THROW(
      (void)scilab::parseScript("local y\n", {{"y", Type::float64()}}),
      ToolchainError);
}

TEST(Scilab, WrongIntrinsicArityRejected) {
  EXPECT_THROW(
      (void)scilab::parseScript("y = sin(1.0, 2.0)\n",
                                {{"y", Type::float64()}}),
      ToolchainError);
  EXPECT_THROW(
      (void)scilab::parseScript("y = atan2(1.0)\n", {{"y", Type::float64()}}),
      ToolchainError);
}

TEST(Scilab, MissingEndRejected) {
  EXPECT_THROW(
      (void)scilab::parseScript("for i = 1:3\n  y = 1.0\n",
                                {{"y", Type::float64()}}),
      ToolchainError);
}

/// The message parseScript throws on `source` (u and y are scalar ports);
/// empty when `source` parses.
std::string scriptError(const std::string& source) {
  try {
    (void)scilab::parseScript(
        source, {{"u", Type::float64()}, {"y", Type::float64()}});
  } catch (const ToolchainError& e) {
    return e.what();
  }
  return "";
}

TEST(Scilab, OutOfRangeFloatLiteralRejected) {
  EXPECT_EQ(scriptError("y = 1.0\ny = 1e999\n"),
            "scilab line 2: malformed or out-of-range number '1e999'");
}

TEST(Scilab, ExponentWithoutDigitsRejected) {
  EXPECT_EQ(scriptError("y = 1e\n"),
            "scilab line 1: malformed or out-of-range number '1e'");
  EXPECT_EQ(scriptError("y = 1.5e+\n"),
            "scilab line 1: malformed or out-of-range number '1.5e+'");
}

TEST(Scilab, IntegerLiteralsKeepEveryDigit) {
  // 2^53 + 1 has no double; an integer literal never passes through one.
  const scilab::ParsedScript parsed = scilab::parseScript(
      "y = 9007199254740993\n", {{"y", Type::float64()}});
  ASSERT_EQ(parsed.body->stmts().size(), 1u);
  EXPECT_EQ(ir::toString(*parsed.body->stmts()[0]),
            "y = 9007199254740993;\n");
}

TEST(Scilab, OutOfRangeIntegerLiteralRejected) {
  EXPECT_EQ(scriptError("y = 99999999999999999999\n"),
            "scilab line 1: integer '99999999999999999999' is out of range");
}

TEST(Scilab, OversizedLocalArrayRejected) {
  EXPECT_EQ(scriptError("local b(99999999999)\n"),
            "scilab line 1: local 'b' has more than 2147483647 elements");
  EXPECT_EQ(scriptError("local b(65536, 65536)\n"),
            "scilab line 1: local 'b' has more than 2147483647 elements");
}

// Loop bounds are checked int64 arithmetic (ir::checkedIntOp): a bound
// with no int64 value is a located error, not a SIGFPE or a wrapped loop.
TEST(Scilab, LoopBoundWithoutAnInt64ValueNamesItsLine) {
  EXPECT_EQ(
      scriptError("y = u;\n"
                  "for i = (-9223372036854775807-1)/(-1):1 do y = u; end\n"),
      "scilab line 2: loop lower bound divides by zero or overflows 64-bit "
      "integers");
  EXPECT_EQ(scriptError("for i = 1:2/0 do y = u; end\n"),
            "scilab line 1: loop upper bound divides by zero or overflows "
            "64-bit integers");
}

TEST(Scilab, InclusiveUpperBoundAtInt64MaxIsRejected) {
  // The half-open IR loop ends at hi + 1, which has no int64 value here.
  EXPECT_EQ(scriptError("for i = 1:9223372036854775807 do y = u; end\n"),
            "scilab line 1: loop upper bound must be below "
            "9223372036854775807");
  EXPECT_EQ(scriptError("for i = 1:9223372036854775806 do y = u; end\n"), "");
}

// A Scilab range is inclusive, so lo:hi runs hi - lo + 1 times; beyond
// INT64_MAX the IR loop has no trip count (ir::validate).
TEST(Scilab, LoopOfMoreThanInt64MaxIterationsNamesItsLine) {
  EXPECT_EQ(scriptError("y = u;\n"
                        "for i = (-9223372036854775807-1):0 do y = u; end\n"),
            "scilab line 2: loop runs more than 9223372036854775807 "
            "iterations");
  EXPECT_EQ(
      scriptError("for i = (-9223372036854775807-1):(-2) do y = u; end\n"),
      "");
}

TEST(ScilabBlock, ArrayPorts) {
  Diagram d("t");
  const Type vecT = Type::array(ScalarKind::Float64, {4});
  const BlockId in = d.add<InputBlock>("u", vecT);
  const BlockId blk = d.add<ScilabBlock>(
      "rev",
      "for i = 1:4\n  y(i) = u(5 - i)\nend\n",
      std::vector<PortSpec>{{"u", vecT}},
      std::vector<PortSpec>{{"y", vecT}});
  const BlockId out = d.add<OutputBlock>("yout");
  d.connect(in, blk);
  d.connect(blk, out);
  CompiledModel model = d.compile();
  ir::Environment env = model.makeEnvironment();
  env["u"] = ir::Value::floats(vecT, {1.0, 2.0, 3.0, 4.0});
  ir::Evaluator(*model.fn).run(env);
  EXPECT_DOUBLE_EQ(env.at("yout").getFloat(0), 4.0);
  EXPECT_DOUBLE_EQ(env.at("yout").getFloat(3), 1.0);
}

TEST(ScilabBlock, PortTypeMismatchRejected) {
  Diagram d("t");
  const BlockId in =
      d.add<InputBlock>("u", Type::array(ScalarKind::Float64, {3}));
  const BlockId blk = d.add<ScilabBlock>(
      "s", "y = u\n",
      std::vector<PortSpec>{{"u", Type::float64()}},  // expects scalar
      std::vector<PortSpec>{{"y", Type::float64()}});
  const BlockId out = d.add<OutputBlock>("yout");
  d.connect(in, blk);
  d.connect(blk, out);
  EXPECT_THROW((void)d.compile(), ToolchainError);
}

TEST(ScilabBlock, TwoInstancesDoNotCollide) {
  // The same script instantiated twice must get independent locals.
  Diagram d("t");
  const BlockId in = d.add<InputBlock>("u", Type::float64());
  const std::string src = "t = u + 1.0\ny = t * 2.0\n";
  const std::vector<PortSpec> ins = {{"u", Type::float64()}};
  const std::vector<PortSpec> outs = {{"y", Type::float64()}};
  const BlockId b1 = d.add<ScilabBlock>("stage", src, ins, outs);
  const BlockId b2 = d.add<ScilabBlock>("stage", src, ins, outs);
  const BlockId out = d.add<OutputBlock>("yout");
  d.connect(in, b1);
  d.connect(b1, b2);
  d.connect(b2, out);
  CompiledModel model = d.compile();
  ir::Environment env = model.makeEnvironment();
  env["u"] = ir::Value::scalarFloat(1.0);
  ir::Evaluator(*model.fn).run(env);
  // stage(stage(1)) = ((1+1)*2 + 1) * 2 = 10.
  EXPECT_DOUBLE_EQ(env.at("yout").getFloat(), 10.0);
}

TEST(ScilabBlock, ParseFailureAtConstruction) {
  EXPECT_THROW(ScilabBlock("bad", "y = (",
                           std::vector<PortSpec>{},
                           std::vector<PortSpec>{{"y", Type::float64()}}),
               ToolchainError);
}

/// Runs the tool-chain on a one-in/one-out Scilab block on `platform`.
core::ToolchainResult compileBlock(const std::string& source,
                                   const adl::Platform& platform) {
  Diagram d("t");
  const BlockId in = d.add<InputBlock>("u", Type::float64());
  const BlockId blk = d.add<ScilabBlock>(
      "s", source, std::vector<PortSpec>{{"u", Type::float64()}},
      std::vector<PortSpec>{{"y", Type::float64()}});
  const BlockId out = d.add<OutputBlock>("yout");
  d.connect(in, blk);
  d.connect(blk, out);
  return core::Toolchain(platform, core::ToolchainOptions{}).run(d);
}

/// The message compileBlock throws on `source` on a 2-tile bus; empty when
/// the tool-chain returns. Nothing is simulated.
std::string compileError(const std::string& source) {
  try {
    (void)compileBlock(source, adl::makeRecoreXentiumBus(2));
  } catch (const ToolchainError& e) {
    return e.what();
  }
  return "";
}

/// Runs the tool-chain on a one-in/one-out Scilab block on a 2-tile bus,
/// then simulates one step on zero inputs.
void compileAndSimulate(const std::string& source) {
  const adl::Platform platform = adl::makeRecoreXentiumBus(2);
  const core::ToolchainResult result = compileBlock(source, platform);
  ir::Environment env = ir::makeZeroEnvironment(*result.fn);
  for (const auto& [name, value] : result.constants) env[name] = value;
  (void)sim::Simulator(result.program, platform).step(env);
}

/// The message compileAndSimulate throws on `source`; empty when it runs.
std::string compileAndSimulateError(const std::string& source) {
  try {
    compileAndSimulate(source);
  } catch (const ToolchainError& e) {
    return e.what();
  }
  return "";
}

// INT64_MIN / -1 has no int64 value: constant folding leaves it to run
// time, where the evaluator throws, instead of folding it (a SIGFPE).
TEST(ScilabBlock, ConstantQuotientWithoutAnInt64ValueIsLeftUnfolded) {
  EXPECT_EQ(compileAndSimulateError(
                "y = u + (-9223372036854775807 - 1) / (-1);\n"),
            "integer overflow in /");
}

// The same quotient computed from a loop variable reaches the simulator.
TEST(ScilabBlock, RunTimeQuotientWithoutAnInt64ValueThrowsInTheSimulator) {
  EXPECT_EQ(compileAndSimulateError(
                "for i = 1:1 do\n"
                "  y = u + ((-9223372036854775807 - 1) + i - 1) / (-1);\n"
                "end\n"),
            "integer overflow in /");
}

// 2^62 - 1 iterations of a shared read, a shared write and a loop step:
// the bound leaves int64, so the code-level WCET throws instead of
// reporting a wrapped bound. Simulating the loop would not finish.
TEST(ScilabBlock, CodeLevelWcetBeyondInt64IsAnError) {
  EXPECT_EQ(compileError("for i = 1:4611686018427387903 do y = u; end\n"),
            "code-level WCET: bound exceeds int64");
}

// The scratchpad allocator weighs each access by its loops' trip counts
// before the code-level WCET runs: a weight (3037000500^2) or a benefit
// (9 cycles x 2 x (2^62 - 1) accesses of t) beyond int64 is its error.
TEST(ScilabBlock, ScratchpadWeightBeyondInt64IsAnError) {
  const std::string error =
      "spm_alloc: worst-case access count or benefit exceeds int64";
  EXPECT_EQ(compileError("local t\n"
                         "for i = 1:3037000500 do\n"
                         "  for j = 1:3037000500 do t = u; y = t; end\n"
                         "end\n"),
            error);
  EXPECT_EQ(compileError("local t\n"
                         "for i = 1:4611686018427387903 do t = u; y = t; end\n"),
            error);
}

// ---- Mutation corpus: a one-edit mutant parses or names its line ----

// The EGPWS scripts (apps/egpws.cpp) at the default configuration.
constexpr const char* kLookaheadScript =
    "local t; local px; local py; local palt\n"
    "local ix; local iy; local fx; local fy\n"
    "local e00; local e01; local e10; local e11; local elev\n"
    "for i = 1:32\n"
    "  t = float(i) * 0.5\n"
    "  px = x + gs * t * cos(heading) / 100\n"
    "  py = y + gs * t * sin(heading) / 100\n"
    "  palt = alt + vs * t\n"
    "  px = min(max(px, 1.0), 31.0 - 0.001)\n"
    "  py = min(max(py, 1.0), 31.0 - 0.001)\n"
    "  ix = int(floor(px))\n"
    "  iy = int(floor(py))\n"
    "  fx = px - float(ix)\n"
    "  fy = py - float(iy)\n"
    "  e00 = terrain(iy, ix)\n"
    "  e01 = terrain(iy, ix + 1)\n"
    "  e10 = terrain(iy + 1, ix)\n"
    "  e11 = terrain(iy + 1, ix + 1)\n"
    "  elev = e00*(1.0-fx)*(1.0-fy) + e01*fx*(1.0-fy) + e10*(1.0-fx)*fy"
    " + e11*fx*fy\n"
    "  clr(i) = palt - elev\n"
    "end\n";

constexpr const char* kAlertScript =
    "alert = 0.0\n"
    "if minclr < 500.0 then alert = 1.0 end\n"
    "if minclr < 200.0 then alert = 2.0 end\n";

TEST(Scilab, EveryMutantParsesOrNamesItsLine) {
  const std::map<std::string, Type> lookaheadPorts = {
      {"terrain", Type::array(ScalarKind::Float64, {32, 32})},
      {"x", Type::float64()},
      {"y", Type::float64()},
      {"alt", Type::float64()},
      {"gs", Type::float64()},
      {"vs", Type::float64()},
      {"heading", Type::float64()},
      {"clr", Type::array(ScalarKind::Float64, {32})}};
  const std::map<std::string, Type> alertPorts = {
      {"minclr", Type::float64()}, {"alert", Type::float64()}};
  // Both seeds parse as they stand.
  (void)scilab::parseScript(kLookaheadScript, lookaheadPorts);
  (void)scilab::parseScript(kAlertScript, alertPorts);

  test::MutantSweep sweep{"scilab line ", {}};
  sweep.run(kLookaheadScript, [&](const std::string& text) {
    (void)scilab::parseScript(text, lookaheadPorts);
  });
  sweep.run(kAlertScript, [&](const std::string& text) {
    (void)scilab::parseScript(text, alertPorts);
  });
  EXPECT_GT(sweep.parsed, 0);
  EXPECT_GT(sweep.rejected, 0);
  EXPECT_EQ(sweep.breaks.size(), 0u)
      << "the first: " << (sweep.breaks.empty() ? "" : sweep.breaks.front());
}

}  // namespace
}  // namespace argo::model
