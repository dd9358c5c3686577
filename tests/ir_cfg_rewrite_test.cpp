// Unit tests for the hierarchical CFG and the rewriting utilities.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/printer.h"
#include "ir/rewrite.h"

namespace argo::ir {
namespace {

TEST(Cfg, EmptyBlockIsEntryExit) {
  const auto cfg = Cfg::build(*block());
  ASSERT_EQ(cfg->nodes().size(), 2u);
  EXPECT_EQ(cfg->node(cfg->entry()).kind, CfgNodeKind::Entry);
  EXPECT_EQ(cfg->node(cfg->exit()).kind, CfgNodeKind::Exit);
}

TEST(Cfg, ConsecutiveAssignsShareBasicBlock) {
  auto b = block();
  b->append(assign(ref("x"), lit(1)));
  b->append(assign(ref("y"), lit(2)));
  b->append(assign(ref("z"), lit(3)));
  const auto cfg = Cfg::build(*b);
  int basics = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Basic) {
      ++basics;
      EXPECT_EQ(n.assigns.size(), 3u);
    }
  }
  EXPECT_EQ(basics, 1);
}

TEST(Cfg, IfCreatesBranchAndJoin) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto elseB = block();
  elseB->append(assign(ref("x"), lit(2)));
  auto b = block();
  b->append(ifStmt(boolean(true), std::move(thenB), std::move(elseB)));
  const auto cfg = Cfg::build(*b);
  int branches = 0;
  int joins = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Branch) {
      ++branches;
      EXPECT_EQ(n.succs.size(), 2u);
    }
    if (n.kind == CfgNodeKind::Join) ++joins;
  }
  EXPECT_EQ(branches, 1);
  EXPECT_EQ(joins, 1);
}

TEST(Cfg, EmptyElseStillJoins) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto b = block();
  b->append(ifStmt(boolean(false), std::move(thenB)));
  const auto cfg = Cfg::build(*b);
  // Must reach the exit regardless of branch direction.
  EXPECT_NO_THROW((void)cfg->topoOrder());
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Branch) {
      EXPECT_EQ(n.succs.size(), 2u);
    }
  }
}

TEST(Cfg, LoopBecomesHierarchicalNode) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  auto b = block();
  b->append(forLoop("i", 0, 8, std::move(body)));
  const auto cfg = Cfg::build(*b);
  int loops = 0;
  for (const CfgNode& n : cfg->nodes()) {
    if (n.kind == CfgNodeKind::Loop) {
      ++loops;
      ASSERT_NE(n.loop, nullptr);
      EXPECT_EQ(n.loop->tripCount(), 8);
      ASSERT_NE(n.body, nullptr);
      EXPECT_GE(n.body->nodes().size(), 3u);  // entry + basic + exit
    }
  }
  EXPECT_EQ(loops, 1);
}

TEST(Cfg, TopoOrderCoversAllNodes) {
  auto thenB = block();
  thenB->append(assign(ref("x"), lit(1)));
  auto b = block();
  b->append(assign(ref("y"), lit(0)));
  b->append(ifStmt(boolean(true), std::move(thenB)));
  b->append(assign(ref("z"), lit(2)));
  const auto cfg = Cfg::build(*b);
  const auto order = cfg->topoOrder();
  EXPECT_EQ(order.size(), cfg->nodes().size());
  EXPECT_EQ(order.front(), cfg->entry());
}

TEST(Cfg, TotalNodeCountIncludesNesting) {
  auto inner = block();
  inner->append(assign(ref("a", exprVec(var("j"))), var("j")));
  auto outerBody = block();
  outerBody->append(forLoop("j", 0, 2, std::move(inner)));
  auto b = block();
  b->append(forLoop("i", 0, 2, std::move(outerBody)));
  const auto cfg = Cfg::build(*b);
  EXPECT_GT(cfg->totalNodeCount(), cfg->nodes().size());
}

TEST(Rewrite, RenameVariablesEverywhere) {
  StmtPtr s = assign(ref("a", exprVec(var("i"))),
                     add(var("x"), ref("x", exprVec())));
  renameVars(*s, {{"a", "A"}, {"x", "X"}});
  EXPECT_EQ(toString(*s), "A[i] = (X + X);\n");
}

TEST(Rewrite, RenameLoopVariable) {
  auto body = block();
  body->append(assign(ref("a", exprVec(var("i"))), var("i")));
  StmtPtr loop = forLoop("i", 0, 4, std::move(body));
  renameVars(*loop, {{"i", "k"}});
  const std::string text = toString(*loop);
  EXPECT_NE(text.find("for (k = 0"), std::string::npos);
  EXPECT_NE(text.find("a[k] = k;"), std::string::npos);
}

TEST(Rewrite, RenameLeavesOthersAlone) {
  StmtPtr s = assign(ref("y"), var("x"));
  renameVars(*s, {{"z", "Z"}});
  EXPECT_EQ(toString(*s), "y = x;\n");
}

}  // namespace
}  // namespace argo::ir
