// Codegen suite: lowering semantics (the evaluator-mirroring type rules),
// canonical output formatting, emission determinism across runs and
// thread counts, and the golden emitted source for the diamond fixture.
#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "codegen/lower.h"
#include "core/toolchain.h"
#include "diamond_fixture.h"
#include "ir/builder.h"
#include "sched/policy.h"
#include "support/diagnostics.h"
#include "support/graph.h"

namespace argo {
namespace {

// ---------------------------------------------------------------- Lowering

std::unique_ptr<ir::Function> typedFn() {
  auto fn = std::make_unique<ir::Function>("typed");
  fn->declare("f", ir::Type::float64(), ir::VarRole::Input);
  fn->declare("n", ir::Type::int32(), ir::VarRole::Input);
  fn->declare("b", ir::Type::boolean(), ir::VarRole::Temp);
  fn->declare("a", ir::Type::array(ir::ScalarKind::Float64, {4, 2}),
              ir::VarRole::Temp);
  return fn;
}

TEST(CodegenLowering, LiteralsAndVarTypes) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  const auto i = lowerer.lowerExpr(*ir::lit(7));
  EXPECT_EQ(i.text, "((int64_t)7)");
  EXPECT_FALSE(i.isFloat);
  // Hexfloat literals round-trip the exact double.
  const auto f = lowerer.lowerExpr(*ir::flt(1.5));
  EXPECT_EQ(f.text, "0x1.8p+0");
  EXPECT_TRUE(f.isFloat);
  // Int32/Bool loads widen to the evaluator's int64 immediately.
  const auto n = lowerer.lowerExpr(*ir::var("n"));
  EXPECT_EQ(n.text, "(int64_t)A_n[0]");
  EXPECT_FALSE(n.isFloat);
  EXPECT_TRUE(lowerer.lowerExpr(*ir::var("f")).isFloat);
}

TEST(CodegenLowering, MixedArithmeticPromotesLikeEvaluator) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  // int + float -> float op on asFloat views.
  const auto mixed = lowerer.lowerExpr(*ir::add(ir::var("n"), ir::var("f")));
  EXPECT_TRUE(mixed.isFloat);
  EXPECT_EQ(mixed.text, "((double)(int64_t)A_n[0] + A_f[0])");
  // int / int routes through the trap-checked helper.
  const auto division = lowerer.lowerExpr(*ir::div(ir::var("n"), ir::lit(2)));
  EXPECT_FALSE(division.isFloat);
  EXPECT_EQ(division.text, "argo_idiv((int64_t)A_n[0], ((int64_t)2))");
  // Comparisons always compare as double (Scalar::asFloat), yielding int.
  const auto cmp = lowerer.lowerExpr(*ir::lt(ir::var("n"), ir::lit(3)));
  EXPECT_FALSE(cmp.isFloat);
  EXPECT_EQ(cmp.text,
            "((int64_t)((double)(int64_t)A_n[0] < (double)((int64_t)3)))");
}

TEST(CodegenLowering, SelectMixedArmsPromoteToDouble) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  const auto sel = lowerer.lowerExpr(
      *ir::select(ir::var("b"), ir::var("f"), ir::lit(0)));
  EXPECT_TRUE(sel.isFloat);
  EXPECT_EQ(sel.text,
            "(((int64_t)A_b[0] != 0) ? A_f[0] : (double)((int64_t)0))");
  // Same-typed arms keep their type.
  const auto intSel = lowerer.lowerExpr(
      *ir::select(ir::var("b"), ir::lit(1), ir::lit(2)));
  EXPECT_FALSE(intSel.isFloat);
}

TEST(CodegenLowering, StoresNarrowToDeclaredWidth) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  const std::string toInt =
      lowerer.lowerStmt(*ir::assign(ir::ref("n"), ir::var("f")), 0);
  EXPECT_EQ(toInt, "A_n[0] = (int32_t)(int64_t)A_f[0];\n");
  const std::string toBool =
      lowerer.lowerStmt(*ir::assign(ir::ref("b"), ir::lit(1)), 0);
  EXPECT_EQ(toBool, "A_b[0] = (signed char)((int64_t)1);\n");
}

TEST(CodegenLowering, MultiDimFlattensRowMajor) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  const auto elem = lowerer.lowerExpr(
      *ir::ref("a", ir::exprVec(ir::lit(1), ir::lit(0))));
  EXPECT_EQ(elem.text, "A_a[(((int64_t)1) * 2 + ((int64_t)0))]");
}

TEST(CodegenLowering, LoopVarsBecomeLocalInt64) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"), ir::lit(0))),
                          ir::var("i")));
  const std::string text =
      lowerer.lowerStmt(*ir::forLoop("i", 0, 4, std::move(body)), 0);
  // The float-array store widens the int loop variable (Scalar::asFloat).
  EXPECT_EQ(text,
            "for (int64_t L_i = 0; L_i < 4; L_i += 1) {\n"
            "  A_a[(L_i * 2 + ((int64_t)0))] = (double)L_i;\n"
            "}\n");
}

TEST(CodegenLowering, UnknownIntrinsicThrows) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  EXPECT_THROW((void)lowerer.lowerExpr(*ir::call(
                   "mystery", ir::exprVec(ir::var("f"), ir::var("f")))),
               support::ToolchainError);
}

// ------------------------------------------------------- Canonical output

TEST(CodegenCanonicalOutput, FormatsOutputsOnly) {
  ir::Function fn("out");
  fn.declare("x", ir::Type::float64(), ir::VarRole::Input);
  fn.declare("y", ir::Type::array(ir::ScalarKind::Float64, {2}),
             ir::VarRole::Output);
  fn.declare("k", ir::Type::int32(), ir::VarRole::Output);
  ir::Environment env = ir::makeZeroEnvironment(fn);
  env["y"].setFloat(0, 1.5);
  env["y"].setFloat(1, -0.25);
  env["k"].setInt(0, -3);
  env["x"].setFloat(0, 9.0);  // inputs never print
  EXPECT_EQ(codegen::canonicalOutputs(fn, env, 2),
            "-- step 2\n"
            "y[0] = 0x1.8p+0\n"
            "y[1] = -0x1p-2\n"
            "k = -3\n");
}

TEST(CodegenCanonicalOutput, ReferenceCarriesStateAcrossSteps) {
  // y = s + x; s = y  — a running sum, so per-step outputs must differ
  // when the evaluator keeps State between trace steps.
  ir::Function fn("acc");
  fn.declare("x", ir::Type::float64(), ir::VarRole::Input);
  fn.declare("s", ir::Type::float64(), ir::VarRole::State);
  fn.declare("y", ir::Type::float64(), ir::VarRole::Output);
  fn.body().append(ir::assign(ir::ref("y"), ir::add(ir::var("s"),
                                                    ir::var("x"))));
  fn.body().append(ir::assign(ir::ref("s"), ir::var("y")));

  codegen::InputTrace trace;
  for (int step = 0; step < 2; ++step) {
    ir::Environment env;
    env.emplace("x", ir::Value::scalarFloat(1.0));
    trace.steps.push_back(std::move(env));
  }
  EXPECT_EQ(codegen::referenceOutputs(fn, {}, trace),
            "-- step 0\n"
            "y = 0x1p+0\n"
            "-- step 1\n"
            "y = 0x1p+1\n");
}

// ------------------------------------------------ Determinism and golden

/// Diamond fixture through a fixed scheduling pipeline (no feedback
/// heuristics): HEFT on a 2-tile bus at chunksPerLoop 1.
struct DiamondProgram {
  std::unique_ptr<ir::Function> fn;
  adl::Platform platform = adl::makeRecoreXentiumBus(2);
  htg::TaskGraph graph;
  par::ParallelProgram program;
};

DiamondProgram makeDiamondProgram() {
  DiamondProgram d;
  d.fn = test::makeDiamondFn(8);
  const htg::Htg htg = htg::buildHtg(*d.fn);
  htg::ExpandOptions expand;
  expand.chunksPerLoop = 1;
  d.graph = htg::expand(htg, expand);
  const auto timings = sched::computeTaskTimings(d.graph, d.platform);
  const auto succ = d.graph.successors();
  const auto pred = d.graph.predecessors();
  const sched::SchedContext ctx{d.graph,  d.platform, timings,
                                succ,     pred,       d.platform.coreCount()};
  const sched::Schedule schedule =
      sched::policyOrThrow("heft").run(ctx, sched::SchedOptions{});
  d.program = par::buildParallelProgram(d.graph, schedule, d.platform);
  return d;
}

codegen::InputTrace diamondTrace(const ir::Function& fn) {
  codegen::InputTrace trace;
  ir::Environment env = ir::makeZeroEnvironment(fn);
  for (std::int64_t k = 0; k < env.at("u").size(); ++k) {
    env["u"].setFloat(k, 0.5 * static_cast<double>(k));
  }
  trace.steps.push_back(std::move(env));
  return trace;
}

TEST(CodegenDeterminism, EmissionIsBytePure) {
  const DiamondProgram d = makeDiamondProgram();
  const codegen::InputTrace trace = diamondTrace(*d.fn);
  const codegen::Emission a =
      codegen::emitProgram(d.program, d.platform, {}, trace);
  const codegen::Emission b =
      codegen::emitProgram(d.program, d.platform, {}, trace);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t k = 0; k < a.files.size(); ++k) {
    EXPECT_EQ(a.files[k].name, b.files[k].name);
    EXPECT_EQ(a.files[k].contents, b.files[k].contents) << a.files[k].name;
  }
  EXPECT_EQ(a.cUnits, b.cUnits);
}

TEST(CodegenDeterminism, ByteIdenticalAcrossToolchainThreadCounts) {
  // The emit step is downstream of the whole deterministic pipeline: runs
  // in the nodes of an eight-thread graph (as argo_eval --threads 8 runs
  // them) must emit the bytes of a plain run.
  const core::Toolchain toolchain(adl::makeRecoreXentiumBus(4),
                                  core::ToolchainOptions{});
  model::CompiledModel model;
  model.fn = test::makeDiamondFn(16);
  const auto runAndEmit = [&] {
    const core::ToolchainResult result = toolchain.run(model);
    return toolchain.emitC(result, diamondTrace(*result.fn));
  };
  const codegen::Emission seq = runAndEmit();
  std::vector<codegen::Emission> pooled(8);
  support::TaskGraph graph;
  for (std::size_t k = 0; k < pooled.size(); ++k) {
    graph.addNode("emit", [&, k] { pooled[k] = runAndEmit(); });
  }
  graph.run(8);
  for (const codegen::Emission& emission : pooled) {
    ASSERT_EQ(seq.files.size(), emission.files.size());
    for (std::size_t k = 0; k < seq.files.size(); ++k) {
      EXPECT_EQ(seq.files[k].contents, emission.files[k].contents)
          << seq.files[k].name;
    }
  }
}

// Golden anchor: byte-for-byte what the diamond fixture emits for tile 0
// (HEFT, 2-tile bus, chunksPerLoop 1). Like the scenario generator's
// kGoldenIr, a diff here is a breaking change to the emitted-source
// contract, not churn.
constexpr const char* kGoldenTile0 =
    R"C(// Generated by the ARGO tool-chain - do not edit.
// Tile 0 (xentium): 4 scheduled tasks, static order.
#include "program.h"

// task 0 'loop_i0_0' [start 0, finish 186]
void argo_task_0(void) {
  for (int64_t L_i0 = 0; L_i0 < 8; L_i0 += 1) {
    A_a[L_i0] = (A_u[L_i0] * 0x1p+1);
  }
}

// task 1 'loop_i1_1' [start 186, finish 372]
void argo_task_1(void) {
  for (int64_t L_i1 = 0; L_i1 < 8; L_i1 += 1) {
    A_l[L_i1] = (A_a[L_i1] * 0x1.8p+1);
  }
}

// task 2 'loop_i2_2' [start 372, finish 558]
void argo_task_2(void) {
  for (int64_t L_i2 = 0; L_i2 < 8; L_i2 += 1) {
    A_r[L_i2] = (A_a[L_i2] * 0x1.4p+2);
  }
}

// task 3 'loop_i3_3' [start 558, finish 824]
void argo_task_3(void) {
  for (int64_t L_i3 = 0; L_i3 < 8; L_i3 += 1) {
    A_y[L_i3] = (A_l[L_i3] + A_r[L_i3]);
  }
}


const argo_slot argo_tile0_slots[4] = {
    {0ll, 186ll, 0, argo_task_0, NULL, 0, NULL, 0},
    {186ll, 372ll, 1, argo_task_1, NULL, 0, NULL, 0},
    {372ll, 558ll, 2, argo_task_2, NULL, 0, NULL, 0},
    {558ll, 824ll, 3, argo_task_3, NULL, 0, NULL, 0},
};
)C";

TEST(CodegenGolden, DiamondTileSource) {
  const DiamondProgram d = makeDiamondProgram();
  const codegen::Emission emission =
      codegen::emitProgram(d.program, d.platform, {}, diamondTrace(*d.fn));
  // Golden anchor: the full translation unit of tile 0. A diff here means
  // the emitted-source contract changed — review docs/CODEGEN.md and the
  // recorded differential baselines before accepting it.
  EXPECT_EQ(emission.file("tile0.c").contents, kGoldenTile0);
}

// ------------------------------------------------- Execution modes

TEST(CodegenExecModes, ThreadedEmissionIsBytePure) {
  const DiamondProgram d = makeDiamondProgram();
  const codegen::InputTrace trace = diamondTrace(*d.fn);
  codegen::EmitOptions options;
  options.mode = codegen::ExecMode::Threads;
  options.runtimeAsserts = true;
  const codegen::Emission a =
      codegen::emitProgram(d.program, d.platform, {}, trace, options);
  const codegen::Emission b =
      codegen::emitProgram(d.program, d.platform, {}, trace, options);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t k = 0; k < a.files.size(); ++k) {
    EXPECT_EQ(a.files[k].contents, b.files[k].contents) << a.files[k].name;
  }
}

TEST(CodegenExecModes, TileUnitsDoNotDependOnMode) {
  // Only program.h (the ARGO_EXEC_THREADS / ARGO_RUNTIME_ASSERTS defines)
  // and main.c (the harness) may differ between modes — the per-tile
  // translation units carry the same bytes, so WCET analysis of the task
  // code is mode-independent.
  const DiamondProgram d = makeDiamondProgram();
  const codegen::InputTrace trace = diamondTrace(*d.fn);
  codegen::EmitOptions threads;
  threads.mode = codegen::ExecMode::Threads;
  const codegen::Emission seq =
      codegen::emitProgram(d.program, d.platform, {}, trace);
  const codegen::Emission thr =
      codegen::emitProgram(d.program, d.platform, {}, trace, threads);
  EXPECT_EQ(seq.file("tile0.c").contents, thr.file("tile0.c").contents);
  EXPECT_NE(seq.file("program.h").contents, thr.file("program.h").contents);
  EXPECT_NE(seq.file("main.c").contents, thr.file("main.c").contents);
  EXPECT_NE(thr.file("main.c").contents.find("pthread_create"),
            std::string::npos);
  EXPECT_EQ(seq.file("main.c").contents.find("pthread_create"),
            std::string::npos);
}

// ------------------------------------------------- Negative paths

/// Pinned-diagnostic helper: the emission must throw a ToolchainError
/// whose message contains `needle` — a diagnostic, not malformed C.
template <typename Fn>
void expectDiagnostic(Fn&& fn, const std::string& needle) {
  try {
    (void)fn();
    FAIL() << "expected ToolchainError containing \"" << needle << "\"";
  } catch (const support::ToolchainError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "actual message: " << error.what();
  }
}

TEST(CodegenNegative, EmptyTraceIsAPinnedDiagnostic) {
  const DiamondProgram d = makeDiamondProgram();
  expectDiagnostic(
      [&] {
        return codegen::emitProgram(d.program, d.platform, {},
                                    codegen::InputTrace{});
      },
      "input trace is empty");
}

/// A one-task pipeline over int32 variables, for the width diagnostics:
/// y = k + c with k an Input and c a Const.
struct IntProgram {
  std::unique_ptr<ir::Function> fn;
  adl::Platform platform = adl::makeRecoreXentiumBus(2);
  htg::TaskGraph graph;
  par::ParallelProgram program;
};

IntProgram makeIntProgram() {
  IntProgram d;
  d.fn = std::make_unique<ir::Function>("intflow");
  d.fn->declare("k", ir::Type::int32(), ir::VarRole::Input);
  d.fn->declare("c", ir::Type::int32(), ir::VarRole::Const);
  d.fn->declare("y", ir::Type::int32(), ir::VarRole::Output);
  d.fn->body().append(
      ir::assign(ir::ref("y"), ir::add(ir::var("k"), ir::var("c"))));
  const htg::Htg htg = htg::buildHtg(*d.fn);
  htg::ExpandOptions expand;
  expand.chunksPerLoop = 1;
  d.graph = htg::expand(htg, expand);
  const auto timings = sched::computeTaskTimings(d.graph, d.platform);
  const auto succ = d.graph.successors();
  const auto pred = d.graph.predecessors();
  const sched::SchedContext ctx{d.graph,  d.platform, timings,
                                succ,     pred,       d.platform.coreCount()};
  const sched::Schedule schedule =
      sched::policyOrThrow("heft").run(ctx, sched::SchedOptions{});
  d.program = par::buildParallelProgram(d.graph, schedule, d.platform);
  return d;
}

ir::Value int32Value(std::int64_t v) {
  ir::Value value = ir::Value::zeros(ir::Type::int32());
  value.setInt(0, v);
  return value;
}

TEST(CodegenNegative, TraceValueExceedingDeclaredWidthIsADiagnostic) {
  const IntProgram d = makeIntProgram();
  codegen::InputTrace trace;
  ir::Environment env;
  env.emplace("k", int32Value(3000000000ll));  // > INT32_MAX
  trace.steps.push_back(std::move(env));
  expectDiagnostic(
      [&] { return codegen::emitProgram(d.program, d.platform, {}, trace); },
      "exceeds the declared int32 width");
}

TEST(CodegenNegative, ConstantExceedingDeclaredWidthIsADiagnostic) {
  const IntProgram d = makeIntProgram();
  codegen::InputTrace trace;
  ir::Environment env;
  env.emplace("k", int32Value(1));
  trace.steps.push_back(std::move(env));
  ir::Environment constants;
  constants.emplace("c", int32Value(-3000000000ll));  // < INT32_MIN
  expectDiagnostic(
      [&] {
        return codegen::emitProgram(d.program, d.platform, constants, trace);
      },
      "exceeds the declared int32 width");
}

TEST(CodegenNegative, LiteralStoreExceedingDeclaredWidthIsADiagnostic) {
  auto fn = typedFn();
  codegen::Lowerer lowerer(*fn);
  expectDiagnostic(
      [&] {
        return lowerer.lowerStmt(
            *ir::assign(ir::ref("n"), ir::lit(3000000000ll)), 0);
      },
      "exceeds the declared int32 width");
  expectDiagnostic(
      [&] {
        return lowerer.lowerStmt(*ir::assign(ir::ref("b"), ir::lit(200)), 0);
      },
      "exceeds the declared bool width");
}

TEST(CodegenNegative, SingleTileProgramEmitsNoChannels) {
  // All four diamond tasks land on tile 0 under HEFT on the 2-tile bus —
  // the single-tile case: the emission is pinned to carry exactly one
  // tile unit, zero inter-tile channels, and a threaded build that still
  // compiles (one worker thread, no condvar waits in any dispatch table).
  const DiamondProgram d = makeDiamondProgram();
  const codegen::InputTrace trace = diamondTrace(*d.fn);
  codegen::EmitOptions threads;
  threads.mode = codegen::ExecMode::Threads;
  const codegen::Emission emission =
      codegen::emitProgram(d.program, d.platform, {}, trace, threads);
  EXPECT_EQ(emission.cUnits,
            (std::vector<std::string>{"tile0.c", "main.c"}));
  EXPECT_NE(
      emission.file("program.h").contents.find("#define ARGO_EVENT_COUNT 0"),
      std::string::npos);
  EXPECT_EQ(emission.file("main.c").contents.find("argo_channels"),
            std::string::npos);
  EXPECT_EQ(emission.file("tile0.c").contents.find("argo_w_"),
            std::string::npos);
}

}  // namespace
}  // namespace argo
