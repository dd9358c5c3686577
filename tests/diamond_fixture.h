// The shared "diamond" scheduling fixture: source -> {left, right} -> sink
// over shared arrays. Enough structure for distinct per-tile timings, real
// dependences and a non-trivial search tree, and — expanded at different
// chunks/loop — graph sizes from 4 tasks to beyond the branch-and-bound
// mask width. Shared by the sched/, codegen and cache test suites.
#pragma once

#include <memory>

#include "ir/builder.h"
#include "ir/function.h"

namespace argo::test {

inline std::unique_ptr<ir::Function> makeDiamondFn(int width = 16) {
  using ir::ScalarKind;
  using ir::Type;
  using ir::VarRole;
  auto fn = std::make_unique<ir::Function>("diamond");
  fn->declare("u", Type::array(ScalarKind::Float64, {width}), VarRole::Input);
  fn->declare("a", Type::array(ScalarKind::Float64, {width}), VarRole::Temp);
  fn->declare("l", Type::array(ScalarKind::Float64, {width}), VarRole::Temp);
  fn->declare("r", Type::array(ScalarKind::Float64, {width}), VarRole::Temp);
  fn->declare("y", Type::array(ScalarKind::Float64, {width}), VarRole::Output);
  auto loop = [&](const char* out, const char* in, double k, const char* var) {
    auto body = ir::block();
    body->append(
        ir::assign(ir::ref(out, ir::exprVec(ir::var(var))),
                   ir::mul(ir::ref(in, ir::exprVec(ir::var(var))), ir::flt(k))));
    return ir::forLoop(var, 0, width, std::move(body));
  };
  fn->body().append(loop("a", "u", 2.0, "i0"));
  fn->body().append(loop("l", "a", 3.0, "i1"));
  fn->body().append(loop("r", "a", 5.0, "i2"));
  auto body = ir::block();
  body->append(ir::assign(
      ir::ref("y", ir::exprVec(ir::var("i3"))),
      ir::add(ir::ref("l", ir::exprVec(ir::var("i3"))),
              ir::ref("r", ir::exprVec(ir::var("i3"))))));
  fn->body().append(ir::forLoop("i3", 0, width, std::move(body)));
  return fn;
}

}  // namespace argo::test
