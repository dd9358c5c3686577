#include "transform/loop_transforms.h"

#include <algorithm>
#include <functional>
#include <map>

#include "ir/builder.h"
#include "ir/dependence.h"
#include "ir/rewrite.h"

namespace argo::transform {

namespace {

using ir::Block;
using ir::For;
using ir::Stmt;
using ir::StmtPtr;

/// Applies `rewrite` to every statement list in the function, outermost
/// first. `rewrite` receives the list and may replace it wholesale; it
/// returns true when it changed something.
template <typename Fn>
bool rewriteBlocks(Block& block, const Fn& rewrite) {
  bool changed = rewrite(block);
  for (const StmtPtr& s : block.stmts()) {
    switch (s->kind()) {
      case ir::StmtKind::For:
        changed |= rewriteBlocks(ir::cast<For>(*s).body(), rewrite);
        break;
      case ir::StmtKind::If: {
        auto& branch = ir::cast<ir::If>(*s);
        changed |= rewriteBlocks(branch.thenBody(), rewrite);
        changed |= rewriteBlocks(branch.elseBody(), rewrite);
        break;
      }
      case ir::StmtKind::Block:
        changed |= rewriteBlocks(ir::cast<Block>(*s), rewrite);
        break;
      case ir::StmtKind::Assign:
        break;
    }
  }
  return changed;
}

}  // namespace

// ------------------------------------------------------------- LoopFusion

bool LoopFusion::run(ir::Function& fn) {
  (void)fn;
  auto rewrite = [](Block& block) {
    bool changed = false;
    std::vector<StmtPtr> out;
    out.reserve(block.stmts().size());
    for (StmtPtr& s : block.stmts()) {
      auto* loop = ir::dynCast<For>(*s);
      For* prev = out.empty() ? nullptr : ir::dynCast<For>(*out.back());
      if (loop == nullptr || prev == nullptr ||
          prev->lower() != loop->lower() || prev->upper() != loop->upper() ||
          prev->step() != loop->step()) {
        out.push_back(std::move(s));
        continue;
      }
      // Legality: the two bodies must be fully independent (no conflicts in
      // either direction) so interleaving iterations cannot change any
      // value.
      const ir::VarUsage a = ir::collectUsage(prev->body());
      const ir::VarUsage b = ir::collectUsage(loop->body());
      if (a.conflictsWith(b) || b.conflictsWith(a)) {
        out.push_back(std::move(s));
        continue;
      }
      // Renaming the second loop variable must not capture an inner loop
      // that already uses the first loop's name.
      if (loop->var() != prev->var()) {
        bool captures = false;
        const std::function<void(const Block&)> scan = [&](const Block& b) {
          for (const StmtPtr& inner : b.stmts()) {
            if (const auto* f = ir::dynCast<For>(*inner)) {
              if (f->var() == prev->var()) captures = true;
              scan(f->body());
            } else if (const auto* i = ir::dynCast<ir::If>(*inner)) {
              scan(i->thenBody());
              scan(i->elseBody());
            } else if (const auto* blk = ir::dynCast<Block>(*inner)) {
              scan(*blk);
            }
          }
        };
        scan(loop->body());
        if (captures) {
          out.push_back(std::move(s));
          continue;
        }
      }
      changed = true;
      // Rename the second loop's variable to the first's, then splice.
      if (loop->var() != prev->var()) {
        const std::map<std::string, std::string> renames = {
            {loop->var(), prev->var()}};
        for (const StmtPtr& inner : loop->body().stmts()) {
          ir::renameVars(*inner, renames);
        }
      }
      for (StmtPtr& inner : loop->body().stmts()) {
        prev->body().append(std::move(inner));
      }
    }
    block.stmts() = std::move(out);  // stmts were moved out unconditionally
    return changed;
  };
  return rewriteBlocks(fn.body(), rewrite);
}

// ----------------------------------------------------- IndexSetSplitting

namespace {

/// Matches `var CMP literal` or `literal CMP var`; returns the split point
/// S such that the condition is equivalent to (i < S) — i.e. iterations
/// below S take the then-branch. Returns false when the shape is
/// unsupported.
bool matchSplit(const ir::Expr& cond, const std::string& var,
                std::int64_t& splitPoint, bool& thenIsLow) {
  const auto* bin = ir::dynCast<ir::BinOp>(cond);
  if (bin == nullptr) return false;
  const auto* lhsVar = ir::dynCast<ir::VarRef>(bin->lhs());
  const auto* rhsLit = ir::dynCast<ir::IntLit>(bin->rhs());
  if (lhsVar == nullptr || rhsLit == nullptr || lhsVar->name() != var ||
      !lhsVar->indices().empty()) {
    return false;
  }
  const std::int64_t k = rhsLit->value();
  switch (bin->op()) {
    case ir::BinOpKind::Lt: splitPoint = k; thenIsLow = true; return true;
    case ir::BinOpKind::Le: splitPoint = k + 1; thenIsLow = true; return true;
    case ir::BinOpKind::Ge: splitPoint = k; thenIsLow = false; return true;
    case ir::BinOpKind::Gt: splitPoint = k + 1; thenIsLow = false; return true;
    default: return false;
  }
}

}  // namespace

bool IndexSetSplitting::run(ir::Function& fn) {
  (void)fn;
  auto rewrite = [](Block& block) {
    bool changed = false;
    std::vector<StmtPtr> out;
    out.reserve(block.stmts().size());
    for (StmtPtr& s : block.stmts()) {
      auto* loop = ir::dynCast<For>(*s);
      // Pattern: unit-step loop whose whole body is one If on the loop var.
      if (loop == nullptr || loop->step() != 1 || loop->body().size() != 1 ||
          loop->body().stmts()[0]->kind() != ir::StmtKind::If) {
        out.push_back(std::move(s));
        continue;
      }
      auto& branch = ir::cast<ir::If>(*loop->body().stmts()[0]);
      std::int64_t split = 0;
      bool thenIsLow = false;
      if (!matchSplit(branch.cond(), loop->var(), split, thenIsLow)) {
        out.push_back(std::move(s));
        continue;
      }
      const std::int64_t lo = loop->lower();
      const std::int64_t hi = loop->upper();
      const std::int64_t mid = std::clamp(split, lo, hi);
      changed = true;
      auto lowBody =
          thenIsLow ? branch.thenBody().cloneBlock() : branch.elseBody().cloneBlock();
      auto highBody =
          thenIsLow ? branch.elseBody().cloneBlock() : branch.thenBody().cloneBlock();
      if (mid > lo && !lowBody->empty()) {
        auto lowLoop = std::make_unique<For>(loop->var(), lo, mid,
                                             std::move(lowBody), 1);
        lowLoop->label = s->label.empty() ? "" : s->label + ".lo";
        out.push_back(std::move(lowLoop));
      }
      if (hi > mid && !highBody->empty()) {
        auto highLoop = std::make_unique<For>(loop->var(), mid, hi,
                                              std::move(highBody), 1);
        highLoop->label = s->label.empty() ? "" : s->label + ".hi";
        out.push_back(std::move(highLoop));
      }
    }
    block.stmts() = std::move(out);  // stmts were moved out unconditionally
    return changed;
  };
  return rewriteBlocks(fn.body(), rewrite);
}

}  // namespace argo::transform
