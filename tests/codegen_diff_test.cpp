// Differential test of the C code-generation backend: emit the scheduled
// program as C in BOTH execution modes, compile each with the host C
// compiler (-Wall -Wextra -Werror, so emission must be warning-clean),
// run them, and require the printed outputs to match ir::Evaluator
// byte-for-byte on the same inputs (codegen::referenceOutputs). The
// threaded build runs with --runtime-asserts enabled (so no slot may
// violate its scheduled deadline) and is executed ARGO_DIFF_REPEAT times
// (default 2) to shake out interleavings; when the repo is built with
// ARGO_SANITIZE=thread (or ARGO_DIFF_TSAN is set in the environment) the
// threaded harness is additionally compiled with -fsanitize=thread, so a
// data race in the emitted synchronization fails the suite. Covered: the
// three avionics apps and a 25-scenario slice of the generated scenario
// matrix.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "apps/registry.h"
#include "codegen/codegen.h"
#include "core/toolchain.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "model/blocks.h"
#include "model/scilab.h"
#include "scenarios/eval.h"
#include "scenarios/generator.h"
#include "support/rng.h"

#ifndef ARGO_HOST_CC
#define ARGO_HOST_CC "cc"
#endif

namespace argo {
namespace {

namespace fs = std::filesystem;

/// The canonical build line of docs/CODEGEN.md.
constexpr const char* kCcFlags =
    "-std=c11 -O1 -fno-strict-aliasing -Wall -Wextra -Werror";

/// How many times each threaded build is executed (every run must match
/// the oracle byte-for-byte). The TSan CI job raises this via env to
/// explore more interleavings than the default matrix.
int diffRepeat() {
  const char* env = std::getenv("ARGO_DIFF_REPEAT");
  if (env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 2;
}

/// Whether the threaded harness is compiled with -fsanitize=thread:
/// either the repo itself was configured with ARGO_SANITIZE=thread
/// (CMake defines ARGO_EMITTED_TSAN) or ARGO_DIFF_TSAN is set at runtime.
bool emittedTsan() {
#ifdef ARGO_EMITTED_TSAN
  return true;
#else
  return std::getenv("ARGO_DIFF_TSAN") != nullptr;
#endif
}

fs::path makeTempDir(const std::string& tag) {
  std::string templ =
      (fs::temp_directory_path() / ("argo_codegen_" + tag + "_XXXXXX"))
          .string();
  if (mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + templ);
  }
  return fs::path(templ);
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `cmd` through popen and returns its stdout; EXPECTs exit 0 with
/// `log` (compiler output) attached to the failure message.
std::string runCommand(const std::string& cmd, const std::string& tag,
                       const fs::path& logPath) {
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for " << tag;
  if (pipe != nullptr) {
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
      output.append(buf.data(), n);
    }
    const int status = pclose(pipe);
    EXPECT_EQ(status, 0) << tag << ": command failed\n" << readFile(logPath);
  }
  return output;
}

/// Writes and compiles an emission into a fresh temp dir; returns the dir
/// (./prog inside it). `threaded` adds -pthread and, per emittedTsan(),
/// -fsanitize=thread.
fs::path compileEmission(const codegen::Emission& emission,
                         const std::string& tag, bool threaded) {
  const fs::path dir = makeTempDir(tag);
  codegen::writeSources(dir.string(), emission);

  std::string cmd = "cd '" + dir.string() + "' && " + ARGO_HOST_CC + " " +
                    kCcFlags;
  if (threaded) {
    cmd += " -pthread";
    if (emittedTsan()) cmd += " -fsanitize=thread";
  }
  cmd += " -o prog";
  for (const std::string& unit : emission.cUnits) cmd += " " + unit;
  cmd += " -lm 2>cc.log";
  runCommand(cmd, tag + ":compile", dir / "cc.log");
  return dir;
}

/// Runs the compiled program of `dir` once and returns its stdout.
std::string runProgram(const fs::path& dir, const std::string& tag) {
  const std::string cmd =
      "cd '" + dir.string() + "' && ./prog 2>run.log";
  return runCommand(cmd, tag + ":run", dir / "run.log");
}

/// Uniform [-1, 1) inputs for every Input variable, one stream per step
/// (the scenario convention of scenarios/eval.cpp).
codegen::InputTrace randomTrace(const ir::Function& fn, std::uint64_t seed,
                                int steps) {
  codegen::InputTrace trace;
  for (int step = 0; step < steps; ++step) {
    support::Rng rng(seed + static_cast<std::uint64_t>(step));
    ir::Environment env;
    for (const ir::VarDecl& decl : fn.decls()) {
      if (decl.role != ir::VarRole::Input) continue;
      ir::Value value = ir::Value::zeros(decl.type);
      for (std::int64_t k = 0; k < value.size(); ++k) {
        value.setFloat(k, rng.uniformDouble() * 2.0 - 1.0);
      }
      env.emplace(decl.name, std::move(value));
    }
    trace.steps.push_back(std::move(env));
  }
  return trace;
}

/// The dual-mode oracle: both the sequential and the threaded emission
/// must print the evaluator's bytes; the threaded build carries runtime
/// deadline asserts and is run diffRepeat() times. The per-tile
/// translation units must be byte-identical across the two modes (only
/// program.h and main.c differ).
void expectDifferentialMatch(const core::Toolchain& toolchain,
                             const core::ToolchainResult& result,
                             const codegen::InputTrace& trace,
                             const std::string& tag) {
  const std::string expected =
      codegen::referenceOutputs(*result.fn, result.constants, trace);
  EXPECT_FALSE(expected.empty()) << tag;

  const codegen::Emission sequential = toolchain.emitC(result, trace);
  codegen::EmitOptions threadedOptions;
  threadedOptions.mode = codegen::ExecMode::Threads;
  threadedOptions.runtimeAsserts = true;
  const codegen::Emission threaded =
      toolchain.emitC(result, trace, threadedOptions);

  for (const codegen::SourceFile& file : sequential.files) {
    if (file.name.rfind("tile", 0) != 0) continue;
    EXPECT_EQ(file.contents, threaded.file(file.name).contents)
        << tag << ": " << file.name << " must not depend on the exec mode";
  }

  const fs::path seqDir = compileEmission(sequential, tag + "_seq", false);
  EXPECT_EQ(runProgram(seqDir, tag + "_seq"), expected) << tag;
  fs::remove_all(seqDir);

  const fs::path thrDir = compileEmission(threaded, tag + "_thr", true);
  const int repeats = diffRepeat();
  for (int run = 0; run < repeats; ++run) {
    EXPECT_EQ(runProgram(thrDir, tag + "_thr"), expected)
        << tag << ": threaded run " << run << " of " << repeats;
  }
  fs::remove_all(thrDir);
}

class CodegenDiffApps : public ::testing::TestWithParam<const char*> {};

TEST_P(CodegenDiffApps, EmittedCMatchesEvaluator) {
  const std::string app = GetParam();
  const adl::Platform platform = adl::makeRecoreXentiumBus(8);
  const core::Toolchain toolchain(platform, core::ToolchainOptions{});
  const core::ToolchainResult result =
      toolchain.run(apps::buildAppDiagram(app));

  // The same per-step recipe argo_cc --emit-c records (apps/registry.h),
  // so this suite validates exactly the trace the CLI emits.
  codegen::InputTrace trace;
  for (int step = 0; step < 3; ++step) {
    ir::Environment env = ir::makeZeroEnvironment(*result.fn);
    apps::setAppStepInputs(app, env, static_cast<std::uint64_t>(step));
    trace.steps.push_back(std::move(env));
  }
  expectDifferentialMatch(toolchain, result, trace, app);
}

INSTANTIATE_TEST_SUITE_P(Apps, CodegenDiffApps,
                         ::testing::Values("egpws", "weaa", "polka"));

TEST(CodegenDiffScenarios, TwentyFiveScenarioSlice) {
  // The same trimmed tool-chain configuration the batch evaluator uses,
  // over the default generator family (seed 1) — a 25-scenario slice of
  // the argo_eval matrix, each with fresh random inputs, each proven in
  // both execution modes.
  const scenarios::GeneratorOptions generator;
  const adl::Platform platform = adl::makeRecoreXentiumBus(4);
  const core::Toolchain toolchain(platform,
                                  scenarios::defaultEvalToolchainOptions());
  for (int index = 0; index < 25; ++index) {
    const scenarios::Scenario scenario =
        scenarios::generateScenario(generator, index);
    const core::ToolchainResult result = toolchain.run(scenario.model);
    const codegen::InputTrace trace =
        randomTrace(*result.fn, scenario.seed, 2);
    expectDifferentialMatch(toolchain, result, trace, scenario.name);
  }
}

// Constant folding turns `-9223372036854775807 - 1` into an INT64_MIN
// literal, which C cannot spell in decimal: `-9223372036854775808` is the
// negation of a constant no signed type holds, an error under -Werror.
TEST(CodegenDiffLiterals, Int64MinLiteralCompilesAndMatches) {
  model::Diagram d("int64_min");
  const model::BlockId in = d.add<model::InputBlock>("u", ir::Type::float64());
  const model::BlockId blk = d.add<model::ScilabBlock>(
      "s", "y = u + (-9223372036854775807 - 1);\n",
      std::vector<model::scilab::PortSpec>{{"u", ir::Type::float64()}},
      std::vector<model::scilab::PortSpec>{{"y", ir::Type::float64()}});
  const model::BlockId out = d.add<model::OutputBlock>("yout");
  d.connect(in, blk);
  d.connect(blk, out);
  const adl::Platform platform = adl::makeRecoreXentiumBus(2);
  const core::Toolchain toolchain(platform, core::ToolchainOptions{});
  const core::ToolchainResult result = toolchain.run(d);
  const codegen::InputTrace trace = randomTrace(*result.fn, 1, 2);

  bool spelled = false;
  for (const codegen::SourceFile& file : toolchain.emitC(result, trace).files) {
    spelled = spelled ||
              file.contents.find("((int64_t)INT64_MIN)") != std::string::npos;
  }
  EXPECT_TRUE(spelled);
  expectDifferentialMatch(toolchain, result, trace, "int64_min");
}

// Two loops whose last index lies within their step of INT64_MAX, so the
// index after the last would leave int64: `i` runs INT64_MAX-3 and
// INT64_MAX-1 with an empty body, which HTG expansion splits into chunks;
// `j` runs INT64_MAX-4 and INT64_MAX-1 and counts its iterations. The
// evaluator, the chunk bounds and the emitted increment must all stop at
// the last index.
TEST(CodegenDiffLoops, StrideEndingNearInt64MaxMatches) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto fn = std::make_unique<ir::Function>("near_max");
  fn->declare("u", ir::Type::float64(), ir::VarRole::Input);
  fn->declare("y", ir::Type::float64(), ir::VarRole::Output);
  fn->declare("n", ir::Type::int32(), ir::VarRole::Output);
  fn->declare("offset", ir::Type::int32(), ir::VarRole::Output);
  fn->body().append(ir::assign(ir::ref("y"), ir::var("u")));
  fn->body().append(ir::forLoop("i", kMax - 3, kMax, ir::block(), 2));
  auto body = ir::block();
  body->append(ir::assign(ir::ref("n"), ir::add(ir::var("n"), ir::lit(1))));
  body->append(ir::assign(ir::ref("offset"),
                          ir::sub(ir::var("j"), ir::lit(kMax - 4))));
  fn->body().append(ir::forLoop("j", kMax - 4, kMax, std::move(body), 3));
  ASSERT_TRUE(ir::validate(*fn).empty());

  ir::Environment env = ir::makeZeroEnvironment(*fn);
  ir::Evaluator(*fn).run(env);
  EXPECT_EQ(env.at("n").getInt(), 2);
  EXPECT_EQ(env.at("offset").getInt(), 3);  // j = INT64_MAX-1 last

  model::CompiledModel model;
  model.fn = std::move(fn);
  const core::Toolchain toolchain(adl::makeRecoreXentiumBus(2),
                                  core::ToolchainOptions{});
  const core::ToolchainResult result = toolchain.run(model);
  bool split = false;
  for (const core::FeedbackPoint& point : result.feedback) {
    split = split || point.chunksPerLoop == 2;
  }
  EXPECT_TRUE(split);
  const codegen::InputTrace trace = randomTrace(*result.fn, 1, 2);
  bool spelled = false;
  for (const codegen::SourceFile& file : toolchain.emitC(result, trace).files) {
    spelled = spelled ||
              file.contents.find("L_j = L_j < 9223372036854775806 ? L_j + 3 "
                                 ": 9223372036854775807") != std::string::npos;
  }
  EXPECT_TRUE(spelled);
  expectDifferentialMatch(toolchain, result, trace, "near_max");
}

}  // namespace
}  // namespace argo
