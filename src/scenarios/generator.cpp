#include "scenarios/generator.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "ir/builder.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace argo::scenarios {

namespace {

using support::ToolchainError;

/// Maximum upstream values one layered-DAG node reads. The first input
/// always comes from the previous layer (keeps the depth real); the rest
/// are drawn from all earlier layers (TGFF-style shortcuts).
constexpr int kMaxFanIn = 3;
/// Arithmetic operations per element at workFactor 1 and ccr 1: the
/// baseline the ccr and wcetSpread knobs scale.
constexpr int kBaseOpsPerElement = 4;

/// One upstream value a node may read: a declared array or scalar.
struct Upstream {
  std::string name;
  bool scalar = false;
};

void checkRange(bool ok, const char* what) {
  if (!ok) {
    throw ToolchainError(std::string("scenario generator: invalid ") + what);
  }
}

void checkOptions(const GeneratorOptions& o) {
  checkRange(o.minLayers >= 1 && o.maxLayers >= o.minLayers, "layer range");
  checkRange(o.minWidth >= 1 && o.maxWidth >= o.minWidth, "width range");
  checkRange(o.minArrayLen >= 1 && o.maxArrayLen >= o.minArrayLen,
             "array length range");
  checkRange(o.ccr > 0.0, "ccr (must be > 0)");
  checkRange(o.wcetSpread >= 1.0, "wcetSpread (must be >= 1)");
  checkRange(o.accumulatorFraction >= 0.0 && o.accumulatorFraction <= 1.0,
             "accumulatorFraction (must be in [0, 1])");
  checkRange(o.stencilRadius >= 0, "stencilRadius (must be >= 0)");
}

/// The element expression of an upstream inside a loop over `loopVar`.
ir::ExprPtr element(const Upstream& up, const std::string& loopVar) {
  if (up.scalar) return ir::var(up.name);
  return ir::ref(up.name, ir::exprVec(ir::var(loopVar)));
}

/// Multiplier coefficients stay in [0.6, 1.4) so chained products neither
/// explode nor vanish over deep graphs (the simulator evaluates for real).
double coeff(support::Rng& rng) { return 0.6 + 0.8 * rng.uniformDouble(); }

/// Builds the arithmetic chain of one node: starts from the first input's
/// element, folds every further input in with add(mul(...)), then pads
/// with alternating mul/add until at least `targetOps` priced operations
/// are reached. Fan-in structure wins over the target when they conflict.
ir::ExprPtr buildChain(const std::vector<Upstream>& inputs,
                       const std::string& loopVar, int targetOps,
                       support::Rng& rng) {
  ir::ExprPtr expr = element(inputs.front(), loopVar);
  int ops = 0;
  for (std::size_t k = 1; k < inputs.size(); ++k) {
    expr = ir::add(std::move(expr),
                   ir::mul(element(inputs[k], loopVar), ir::flt(coeff(rng))));
    ops += 2;
  }
  while (ops < targetOps) {
    if (ops % 2 == 0) {
      expr = ir::mul(std::move(expr), ir::flt(coeff(rng)));
    } else {
      expr = ir::add(std::move(expr),
                     ir::flt(rng.uniformDouble() - 0.5));
    }
    ++ops;
  }
  return expr;
}

/// The clamped window element prev[max(min(i + offset, len - 1), 0)].
/// Emitted with the IR's Min/Max operators, so the border handling is
/// analyzable (and exercises integer min/max end to end).
ir::ExprPtr windowElement(const std::string& prev, const std::string& loopVar,
                          int offset, int arrayLen) {
  if (offset == 0) return ir::ref(prev, ir::exprVec(ir::var(loopVar)));
  ir::ExprPtr idx;
  if (offset > 0) {
    idx = ir::bin(ir::BinOpKind::Min,
                  ir::add(ir::var(loopVar), ir::lit(offset)),
                  ir::lit(arrayLen - 1));
  } else {
    idx = ir::bin(ir::BinOpKind::Max,
                  ir::sub(ir::var(loopVar), ir::lit(-offset)), ir::lit(0));
  }
  return ir::ref(prev, ir::exprVec(std::move(idx)));
}

/// One stencil stage's element expression: the weighted radius-r window of
/// `prev`, padded with alternating mul/add until `targetOps` operations,
/// exactly like buildChain pads fan-in chains.
ir::ExprPtr buildWindow(const std::string& prev, const std::string& loopVar,
                        int radius, int arrayLen, int targetOps,
                        support::Rng& rng) {
  ir::ExprPtr expr = windowElement(prev, loopVar, 0, arrayLen);
  int ops = 0;
  for (int d = 1; d <= radius; ++d) {
    for (int sign : {-1, 1}) {
      expr = ir::add(std::move(expr),
                     ir::mul(windowElement(prev, loopVar, sign * d, arrayLen),
                             ir::flt(coeff(rng))));
      ops += 2;
    }
  }
  while (ops < targetOps) {
    if (ops % 2 == 0) {
      expr = ir::mul(std::move(expr), ir::flt(coeff(rng)));
    } else {
      expr = ir::add(std::move(expr), ir::flt(rng.uniformDouble() - 0.5));
    }
    ++ops;
  }
  return expr;
}

/// Shape::StencilChain body of generateScenario: `chains` independent
/// stencil pipelines, optionally reduction-terminated, folded into y.
void generateStencilChain(const GeneratorOptions& options, Scenario& scenario,
                          ir::Function& fn, support::Rng& rng) {
  const int layers = scenario.layers;
  const int arrayLen = scenario.arrayLen;
  const ir::Type arrayType =
      ir::Type::array(ir::ScalarKind::Float64, {arrayLen});
  const int chains =
      static_cast<int>(rng.uniformInt(options.minWidth, options.maxWidth));
  const double logSpread = std::log(options.wcetSpread);

  std::vector<Upstream> leaves;
  for (int c = 0; c < chains; ++c) {
    const std::string in = "u" + std::to_string(c);
    fn.declare(in, arrayType, ir::VarRole::Input);
    std::string prev = in;
    for (int l = 1; l <= layers; ++l) {
      const double workFactor = std::exp(rng.uniformDouble() * logSpread);
      const int targetOps = std::max(
          1, static_cast<int>(std::lround(
                 workFactor * kBaseOpsPerElement / options.ccr)));
      // snprintf instead of string concatenation: GCC 12's optimizer
      // trips a -Wrestrict false positive (PR105329) on the + chain here.
      char buf[48];
      std::snprintf(buf, sizeof(buf), "t%d_%d", l, c);
      const std::string out = buf;
      std::snprintf(buf, sizeof(buf), "i%d_%d", l, c);
      const std::string loopVar = buf;
      fn.declare(out, arrayType, ir::VarRole::Temp);
      auto body = ir::block();
      body->append(
          ir::assign(ir::ref(out, ir::exprVec(ir::var(loopVar))),
                     buildWindow(prev, loopVar, options.stencilRadius,
                                 arrayLen, targetOps, rng)));
      fn.body().append(ir::forLoop(loopVar, 0, arrayLen, std::move(body)));
      prev = out;
      scenario.nodes += 1;
    }
    // A chain ends in a scalar reduction with probability
    // accumulatorFraction (the non-expandable tail, like the layered
    // DAG's accumulator nodes); otherwise its last stage feeds the sink.
    if (rng.chance(options.accumulatorFraction)) {
      const std::string acc = "s" + std::to_string(c);
      const std::string loopVar = "ia_" + std::to_string(c);
      fn.declare(acc, ir::Type::float64(), ir::VarRole::Temp);
      fn.body().append(ir::assign(ir::ref(acc), ir::flt(0.0)));
      auto body = ir::block();
      body->append(ir::assign(
          ir::ref(acc),
          ir::add(ir::var(acc),
                  ir::mul(ir::ref(prev, ir::exprVec(ir::var(loopVar))),
                          ir::flt(coeff(rng))))));
      fn.body().append(ir::forLoop(loopVar, 0, arrayLen, std::move(body)));
      leaves.push_back(Upstream{acc, true});
      scenario.nodes += 1;
    } else {
      leaves.push_back(Upstream{prev, false});
    }
  }

  // Sink: one terminal combining every chain's tail.
  fn.declare("y", arrayType, ir::VarRole::Output);
  ir::ExprPtr combo = element(leaves.front(), "iy");
  for (std::size_t k = 1; k < leaves.size(); ++k) {
    combo = ir::add(std::move(combo), element(leaves[k], "iy"));
  }
  auto sink = ir::block();
  sink->append(
      ir::assign(ir::ref("y", ir::exprVec(ir::var("iy"))), std::move(combo)));
  fn.body().append(ir::forLoop("iy", 0, arrayLen, std::move(sink)));
  scenario.nodes += 1;
}

}  // namespace

const char* shapeName(Shape shape) noexcept {
  switch (shape) {
    case Shape::LayeredDag: return "layered_dag";
    case Shape::StencilChain: return "stencil_chain";
  }
  return "layered_dag";
}

Shape shapeFromName(const std::string& name) {
  if (name == "layered_dag") return Shape::LayeredDag;
  if (name == "stencil_chain") return Shape::StencilChain;
  throw ToolchainError("unknown generator shape '" + name +
                       "' (valid: layered_dag, stencil_chain)");
}

std::uint64_t scenarioSeed(std::uint64_t base, int index) noexcept {
  // One SplitMix64 step over golden-ratio-spaced inputs: adjacent indices
  // share no low-bit structure, and index 0 is not the base seed itself.
  support::Rng rng(base +
                   0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(index) + 1));
  return rng.next();
}

Scenario generateScenario(const GeneratorOptions& options, int index) {
  checkOptions(options);
  checkRange(index >= 0, "scenario index (must be >= 0)");

  Scenario scenario;
  char name[32];
  std::snprintf(name, sizeof(name), "scn%03d", index);
  scenario.name = name;
  scenario.seed = scenarioSeed(options.seed, index);
  support::Rng rng(scenario.seed);

  // Scenario-wide draws first, so knob changes that do not touch them
  // (e.g. ccr) keep the same graph shape for the same seed.
  const int layers =
      static_cast<int>(rng.uniformInt(options.minLayers, options.maxLayers));
  const int arrayLen = static_cast<int>(
      rng.uniformInt(options.minArrayLen, options.maxArrayLen));
  scenario.layers = layers;
  scenario.arrayLen = arrayLen;

  auto fn = std::make_unique<ir::Function>(scenario.name);

  if (options.shape == Shape::StencilChain) {
    generateStencilChain(options, scenario, *fn, rng);
    scenario.model.fn = std::move(fn);
    return scenario;
  }

  const ir::Type arrayType =
      ir::Type::array(ir::ScalarKind::Float64, {arrayLen});

  // Layer 0: the input arrays.
  const int inputCount =
      static_cast<int>(rng.uniformInt(options.minWidth, options.maxWidth));
  std::vector<std::vector<Upstream>> produced(1);
  for (int k = 0; k < inputCount; ++k) {
    const std::string in = "u" + std::to_string(k);
    fn->declare(in, arrayType, ir::VarRole::Input);
    produced[0].push_back(Upstream{in, false});
  }

  std::set<std::string> consumed;
  const double logSpread = std::log(options.wcetSpread);

  // Hidden layers, node by node in program order.
  for (int l = 1; l <= layers; ++l) {
    const int width =
        static_cast<int>(rng.uniformInt(options.minWidth, options.maxWidth));
    produced.emplace_back();
    for (int j = 0; j < width; ++j) {
      // Inputs: one from the previous layer (keeps the depth real), the
      // rest TGFF-style shortcuts from any earlier layer. A duplicate draw
      // is skipped rather than redrawn, so fan-in shrinks occasionally.
      std::vector<Upstream> inputs;
      const std::vector<Upstream>& prev = produced[static_cast<std::size_t>(l - 1)];
      inputs.push_back(prev[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(prev.size()) - 1))]);
      std::vector<Upstream> earlier;
      for (int e = 0; e < l; ++e) {
        earlier.insert(earlier.end(), produced[static_cast<std::size_t>(e)].begin(),
                       produced[static_cast<std::size_t>(e)].end());
      }
      const int fanIn = static_cast<int>(rng.uniformInt(
          1, std::min<std::int64_t>(kMaxFanIn,
                                    static_cast<std::int64_t>(earlier.size()))));
      for (int k = 1; k < fanIn; ++k) {
        const Upstream& pick = earlier[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(earlier.size()) - 1))];
        bool duplicate = false;
        for (const Upstream& have : inputs) duplicate |= have.name == pick.name;
        if (!duplicate) inputs.push_back(pick);
      }
      for (const Upstream& in : inputs) consumed.insert(in.name);

      // Per-node work: log-uniform spread, scaled down by the CCR knob.
      const double workFactor = std::exp(rng.uniformDouble() * logSpread);
      const int targetOps = std::max(
          1, static_cast<int>(std::lround(
                 workFactor * kBaseOpsPerElement / options.ccr)));
      const std::string loopVar =
          "i" + std::to_string(l) + "_" + std::to_string(j);
      const bool accumulator = rng.chance(options.accumulatorFraction);

      if (accumulator) {
        // Loop-carried scalar reduction: sequential by construction.
        const std::string out =
            "s" + std::to_string(l) + "_" + std::to_string(j);
        fn->declare(out, ir::Type::float64(), ir::VarRole::Temp);
        fn->body().append(ir::assign(ir::ref(out), ir::flt(0.0)));
        auto body = ir::block();
        body->append(ir::assign(
            ir::ref(out),
            ir::add(ir::var(out),
                    buildChain(inputs, loopVar, targetOps, rng))));
        fn->body().append(ir::forLoop(loopVar, 0, arrayLen, std::move(body)));
        produced.back().push_back(Upstream{out, true});
        scenario.nodes += 1;
      } else {
        // Element-wise parallel loop: expandable into chunks.
        const std::string out =
            "t" + std::to_string(l) + "_" + std::to_string(j);
        fn->declare(out, arrayType, ir::VarRole::Temp);
        auto body = ir::block();
        body->append(
            ir::assign(ir::ref(out, ir::exprVec(ir::var(loopVar))),
                       buildChain(inputs, loopVar, targetOps, rng)));
        fn->body().append(ir::forLoop(loopVar, 0, arrayLen, std::move(body)));
        produced.back().push_back(Upstream{out, false});
        scenario.nodes += 1;
      }
    }
  }

  // Sink: fold every value nothing else consumed into the output, so the
  // DAG has exactly one terminal and no dead nodes.
  fn->declare("y", arrayType, ir::VarRole::Output);
  std::vector<Upstream> leaves;
  for (const std::vector<Upstream>& layer : produced) {
    for (const Upstream& up : layer) {
      if (consumed.find(up.name) == consumed.end()) leaves.push_back(up);
    }
  }
  ir::ExprPtr combo = element(leaves.front(), "iy");
  for (std::size_t k = 1; k < leaves.size(); ++k) {
    combo = ir::add(std::move(combo), element(leaves[k], "iy"));
  }
  auto sink = ir::block();
  sink->append(
      ir::assign(ir::ref("y", ir::exprVec(ir::var("iy"))), std::move(combo)));
  fn->body().append(ir::forLoop("iy", 0, arrayLen, std::move(sink)));
  scenario.nodes += 1;

  scenario.model.fn = std::move(fn);
  return scenario;
}

std::vector<Scenario> generateScenarios(const GeneratorOptions& options,
                                        int count) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
  for (int i = 0; i < count; ++i) {
    scenarios.push_back(generateScenario(options, i));
  }
  return scenarios;
}

}  // namespace argo::scenarios
