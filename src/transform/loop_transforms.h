// Loop transformations for predictability-oriented parallelism extraction.
//
// Paper Section III-C discusses transformations that "must be revisited in
// the context of performance predictability", naming index set splitting
// [Griebl/Feautrier/Lengauer] explicitly. This module implements the two
// passes the tool-chain runs (core::Toolchain, in this order):
//
//  * IndexSetSplitting — rewrites  for i { if (i < K) A else B }  into
//                        for i in [lo,K) { A }; for i in [K,hi) { B },
//                        eliminating the per-iteration branch so the WCET
//                        path no longer takes max(A, B) every iteration.
//  * LoopFusion        — merges adjacent independent loops with identical
//                        iteration ranges (fewer tasks and loop overheads).
//
// Every pass is semantics-preserving and only fires when its (conservative)
// legality conditions hold.
#pragma once

#include "transform/pass.h"

namespace argo::transform {

/// Fuses adjacent independent loops with identical ranges.
class LoopFusion final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "loop_fusion"; }
  bool run(ir::Function& fn) override;
};

/// Splits iteration ranges at affine conditions on the loop variable.
class IndexSetSplitting final : public Pass {
 public:
  [[nodiscard]] std::string name() const override {
    return "index_set_splitting";
  }
  bool run(ir::Function& fn) override;
};

}  // namespace argo::transform
