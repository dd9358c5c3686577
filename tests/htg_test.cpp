// Unit tests for HTG extraction and expansion into flat task graphs.
#include <gtest/gtest.h>

#include "apps/registry.h"
#include "htg/htg.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "scenarios/generator.h"
#include "support/diagnostics.h"
#include "transform/const_fold.h"
#include "transform/loop_transforms.h"

namespace argo::htg {
namespace {

using ir::ScalarKind;
using ir::Type;
using ir::VarRole;

/// in -> loopA(parallel) -> loopB(parallel reads A) -> scalar finish
std::unique_ptr<ir::Function> makePipelineFn() {
  auto fn = std::make_unique<ir::Function>("pipe");
  fn->declare("u", Type::array(ScalarKind::Float64, {16}), VarRole::Input);
  fn->declare("a", Type::array(ScalarKind::Float64, {16}), VarRole::Temp);
  fn->declare("b", Type::array(ScalarKind::Float64, {16}), VarRole::Temp);
  fn->declare("y", Type::float64(), VarRole::Output);

  auto bodyA = ir::block();
  bodyA->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                           ir::mul(ir::ref("u", ir::exprVec(ir::var("i"))),
                                   ir::flt(2.0))));
  ir::StmtPtr loopA = ir::forLoop("i", 0, 16, std::move(bodyA));
  loopA->label = "scale";
  fn->body().append(std::move(loopA));

  auto bodyB = ir::block();
  bodyB->append(ir::assign(ir::ref("b", ir::exprVec(ir::var("j"))),
                           ir::add(ir::ref("a", ir::exprVec(ir::var("j"))),
                                   ir::flt(1.0))));
  ir::StmtPtr loopB = ir::forLoop("j", 0, 16, std::move(bodyB));
  loopB->label = "offset";
  fn->body().append(std::move(loopB));

  fn->body().append(ir::assign(ir::ref("y"),
                               ir::ref("b", ir::exprVec(ir::lit(0)))));
  return fn;
}

TEST(Htg, OneNodePerTopLevelStatement) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  EXPECT_EQ(htg.nodes().size(), 3u);
  EXPECT_EQ(htg.nodes()[0].name, "scale");
  EXPECT_EQ(htg.nodes()[1].name, "offset");
}

TEST(Htg, MarksParallelLoops) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  EXPECT_TRUE(htg.nodes()[0].parallelizable);
  EXPECT_TRUE(htg.nodes()[1].parallelizable);
  EXPECT_FALSE(htg.nodes()[2].parallelizable);  // not a loop
}

TEST(Htg, BuildsFlowDependences) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  // scale -> offset (a), offset -> finish (b).
  bool scaleToOffset = false;
  bool offsetToFinish = false;
  for (const Dep& d : htg.deps()) {
    if (d.from == 0 && d.to == 1) {
      scaleToOffset = true;
      EXPECT_TRUE(d.vars.contains("a"));
      EXPECT_EQ(d.bytes, 16 * 8);
    }
    if (d.from == 1 && d.to == 2) offsetToFinish = true;
  }
  EXPECT_TRUE(scaleToOffset);
  EXPECT_TRUE(offsetToFinish);
}

TEST(Htg, SequentialRecurrenceNotParallel) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {16}), VarRole::Temp);
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("a", ir::exprVec(ir::var("i"))),
      ir::ref("a", ir::exprVec(ir::sub(ir::var("i"), ir::lit(1))))));
  fn.body().append(ir::forLoop("i", 1, 16, std::move(body)));
  const Htg htg = buildHtg(fn);
  EXPECT_FALSE(htg.nodes()[0].parallelizable);
}

TEST(Htg, EscapedPrivatizedScalarBlocksParallelization) {
  // Loop writes scalar t (privatizable inside), but a later node reads t:
  // chunking would deliver the wrong "last" value.
  ir::Function fn("f");
  fn.declare("u", Type::array(ScalarKind::Float64, {8}), VarRole::Input);
  fn.declare("a", Type::array(ScalarKind::Float64, {8}), VarRole::Temp);
  fn.declare("t", Type::float64(), VarRole::Temp);
  fn.declare("y", Type::float64(), VarRole::Output);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("t"),
                          ir::ref("u", ir::exprVec(ir::var("i")))));
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::var("t")));
  fn.body().append(ir::forLoop("i", 0, 8, std::move(body)));
  fn.body().append(ir::assign(ir::ref("y"), ir::var("t")));  // escapes!
  const Htg htg = buildHtg(fn);
  EXPECT_FALSE(htg.nodes()[0].parallelizable);
}

TEST(Expand, SingleChunkKeepsStructure) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  const TaskGraph graph = expand(htg, ExpandOptions{1});
  EXPECT_EQ(graph.tasks.size(), 3u);
  EXPECT_EQ(graph.deps.size(), htg.deps().size());
}

TEST(Expand, ChunksCoverIterationSpaceExactly) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  for (int chunks : {2, 3, 4, 5, 7, 16}) {
    const TaskGraph graph = expand(htg, ExpandOptions{chunks});
    // Collect the chunk ranges of node 0 ("scale").
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    for (const Task& t : graph.tasks) {
      if (t.htgNode != 0) continue;
      ASSERT_EQ(t.stmts.size(), 1u);
      const auto& loop = ir::cast<ir::For>(*t.stmts[0]);
      ranges.emplace_back(loop.lower(), loop.upper());
    }
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(chunks))
        << "chunks " << chunks;
    std::sort(ranges.begin(), ranges.end());
    EXPECT_EQ(ranges.front().first, 0);
    EXPECT_EQ(ranges.back().second, 16);
    std::int64_t total = 0;
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      EXPECT_LT(ranges[k].first, ranges[k].second);  // non-empty
      if (k > 0) {
        EXPECT_EQ(ranges[k].first, ranges[k - 1].second);
      }
      total += ranges[k].second - ranges[k].first;
    }
    EXPECT_EQ(total, 16);
  }
}

TEST(Expand, ChunkCountClampedToTripCount) {
  ir::Function fn("f");
  fn.declare("a", Type::array(ScalarKind::Float64, {3}), VarRole::Temp);
  auto body = ir::block();
  body->append(ir::assign(ir::ref("a", ir::exprVec(ir::var("i"))),
                          ir::flt(0.0)));
  fn.body().append(ir::forLoop("i", 0, 3, std::move(body)));
  const Htg htg = buildHtg(fn);
  const TaskGraph graph = expand(htg, ExpandOptions{16});
  EXPECT_EQ(graph.tasks.size(), 3u);  // at most trip-count chunks
}

TEST(Expand, ChunkedExecutionMatchesSequential) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  const TaskGraph graph = expand(htg, ExpandOptions{4});

  // Sequential reference.
  ir::Environment ref;
  ir::Value u = ir::Value::zeros(Type::array(ScalarKind::Float64, {16}));
  for (int i = 0; i < 16; ++i) u.setFloat(i, 0.5 * i);
  ref["u"] = u;
  ir::Evaluator(*fn).run(ref);

  // Execute tasks in id order (a valid topological order by construction).
  ir::Environment chunked;
  chunked["u"] = u;
  const ir::Evaluator evaluator(*fn);
  for (const Task& task : graph.tasks) {
    for (const ir::StmtPtr& s : task.stmts) {
      evaluator.runStmt(*s, chunked);
    }
  }
  EXPECT_TRUE(ref.at("y").approxEquals(chunked.at("y")));
  EXPECT_TRUE(ref.at("b").approxEquals(chunked.at("b")));
}

TEST(Expand, DependencesConnectAllChunkPairs) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  const TaskGraph graph = expand(htg, ExpandOptions{2});
  // scale#0, scale#1, offset#0, offset#1, finish = 5 tasks.
  ASSERT_EQ(graph.tasks.size(), 5u);
  // Each scale chunk feeds each offset chunk: 4 edges; each offset chunk
  // feeds finish: 2 edges.
  int scaleToOffset = 0;
  int offsetToFinish = 0;
  for (const Dep& d : graph.deps) {
    const Task& from = graph.tasks[static_cast<std::size_t>(d.from)];
    const Task& to = graph.tasks[static_cast<std::size_t>(d.to)];
    if (from.htgNode == 0 && to.htgNode == 1) ++scaleToOffset;
    if (from.htgNode == 1 && to.htgNode == 2) ++offsetToFinish;
  }
  EXPECT_EQ(scaleToOffset, 4);
  EXPECT_EQ(offsetToFinish, 2);
}

TEST(Expand, NoIntraNodeEdges) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  const TaskGraph graph = expand(htg, ExpandOptions{4});
  for (const Dep& d : graph.deps) {
    EXPECT_NE(graph.tasks[static_cast<std::size_t>(d.from)].htgNode,
              graph.tasks[static_cast<std::size_t>(d.to)].htgNode);
  }
}

TEST(Expand, RejectsZeroChunks) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  EXPECT_THROW((void)expand(htg, ExpandOptions{0}), support::ToolchainError);
}

TEST(TaskGraph, SuccessorPredecessorConsistency) {
  const auto fn = makePipelineFn();
  const Htg htg = buildHtg(*fn);
  const TaskGraph graph = expand(htg, ExpandOptions{3});
  const auto succ = graph.successors();
  const auto pred = graph.predecessors();
  int succEdges = 0;
  int predEdges = 0;
  for (const auto& list : succ) succEdges += static_cast<int>(list.size());
  for (const auto& list : pred) predEdges += static_cast<int>(list.size());
  EXPECT_EQ(succEdges, predEdges);
  EXPECT_EQ(succEdges, static_cast<int>(graph.deps.size()));
}

TEST(TaskGraph, EveryEdgePointsToAHigherTaskId) {
  // Task ids are a topological order (TaskGraph::deps): the scheduler's
  // rank and critical-path passes walk them in reverse, and HEFT's
  // lowest-id tie-break relies on it. Checked on the three apps and the
  // seed-7 scenarios of both shapes, before and after the tool-chain's
  // predictability passes, at several granularities, merged and not.
  std::vector<std::unique_ptr<ir::Function>> fns;
  for (const char* app : {"egpws", "weaa", "polka"}) {
    fns.push_back(std::move(apps::buildAppDiagram(app).compile().fn));
  }
  for (const scenarios::Shape shape :
       {scenarios::Shape::LayeredDag, scenarios::Shape::StencilChain}) {
    scenarios::GeneratorOptions generator;
    generator.seed = 7;
    generator.shape = shape;
    for (int index = 0; index < 12; ++index) {
      fns.push_back(std::move(
          scenarios::generateScenario(generator, index).model.fn));
    }
  }
  const std::size_t models = fns.size();
  for (std::size_t m = 0; m < models; ++m) {
    std::unique_ptr<ir::Function> transformed = fns[m]->clone();
    transform::PassManager passes;
    passes.add(std::make_unique<transform::ConstantFolding>());
    passes.add(std::make_unique<transform::IndexSetSplitting>());
    passes.add(std::make_unique<transform::LoopFusion>());
    (void)passes.run(*transformed);
    fns.push_back(std::move(transformed));
  }
  std::size_t edges = 0;
  for (const std::unique_ptr<ir::Function>& fn : fns) {
    const Htg htg = buildHtg(*fn);
    for (const int chunks : {1, 2, 4, 8}) {
      for (const bool merge : {false, true}) {
        const TaskGraph graph = expand(htg, ExpandOptions{chunks, merge});
        for (const Dep& d : graph.deps) {
          EXPECT_LT(d.from, d.to) << fn->name() << " chunks " << chunks
                                  << " merge " << merge;
        }
        edges += graph.deps.size();
      }
    }
  }
  EXPECT_GT(edges, 0u);
}

}  // namespace
}  // namespace argo::htg
