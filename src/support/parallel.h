// Deterministic data parallelism for the tool-chain's hot phases.
//
// The one layer every embarrassingly parallel phase (cross-layer feedback
// exploration, per-task timing analysis, annealing restarts,
// branch-and-bound subtrees, MHP rows, simulator trials) shares instead of
// hand-rolling its own thread handling. The contract, identical for the
// sequential and the pooled path:
//
//  * parallelFor(n, threads, fn) runs fn(i) for every i in [0, n). Every
//    index executes even if another index throws; when several indices
//    throw, the exception of the *lowest* failing index propagates. This
//    makes failure behaviour independent of the thread count and of the
//    execution interleaving.
//  * The layer never imposes an ordering on side effects. Callers that
//    need bit-identical results against a sequential run write into
//    per-index slots and reduce strictly in index order afterwards
//    ("ladder-order reduction"; see docs/ARCHITECTURE.md, "Determinism
//    contract"). The one sanctioned piece of shared mutable state between
//    tasks is a support::SharedIncumbent used for strictly-non-improving
//    pruning (see shared_incumbent.h for why that preserves determinism);
//    results themselves always go through slots.
//  * Pools do not nest: requesting a pooled run (resolved parallelism > 1)
//    from inside a parallelFor task — or from inside a TaskGraph node —
//    throws ToolchainError. Inner phases invoked from a pooled outer phase
//    must pass threads = 1, which runs inline and is always allowed
//    (core::Toolchain does exactly this for the scheduler it runs per
//    candidate).
//  * Each pooled call runs on a transient thread team (detail::runTeam):
//    the calling thread plus N-1 std::threads spawned on entry and joined
//    before return. One phase therefore owns the whole thread budget at a
//    time, and nothing outlives the call. Exactly two entry points start a
//    team: parallelFor for index-space phases (executors take indices
//    from a shared atomic counter) and support::TaskGraph::run
//    (support/graph.h) for dependency-graph phases (executors drain the
//    ready queue); runTeam holds the one no-nesting check for both.
#pragma once

#include <cstddef>
#include <functional>

namespace argo::support {

/// Worker count a phase should use for `n` independent items given its
/// thread knob: `threads <= 0` means one per hardware thread, otherwise
/// `threads`; never more than `n` and never less than 1.
[[nodiscard]] unsigned effectiveParallelism(int threads, std::size_t n);

/// True while the calling thread is executing a parallelFor task (used to
/// reject nested pools; exposed for tests).
[[nodiscard]] bool inParallelTask() noexcept;

/// Runs `fn(i)` for every i in [0, n), blocking until all complete.
/// `threads` follows the effectiveParallelism() convention; a resolved
/// parallelism of 1 runs inline on the calling thread, in index order,
/// with the same all-indices-execute / lowest-failing-index-wins failure
/// contract as the pooled path. Throws support::ToolchainError when a
/// pooled run is requested from inside another parallelFor task.
void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& fn);

namespace detail {

/// Runs `body` on `executors` threads at once — the calling thread plus
/// `executors - 1` transient std::threads — and returns once all of them
/// have returned (the team is joined). `executors <= 1` calls `body`
/// inline. A team of two or more started from inside a pooled task body
/// throws ToolchainError, prefixed with `owner`, before anything runs:
/// the single no-nested-pools check of parallelFor and TaskGraph::run,
/// the only two callers. Both catch per work item, which is what keeps
/// their failure contracts deterministic; an exception that still escapes
/// `body` is rethrown after the join (the lowest team member's first).
void runTeam(unsigned executors, const char* owner,
             const std::function<void()>& body);

/// RAII marker for "this thread is executing a pooled task body". Sets the
/// thread-local flag behind inParallelTask() on construction and restores
/// (not clears) the previous value on destruction, so inline nesting keeps
/// the guard armed. Internal to the two sanctioned team owners —
/// parallelFor and support::TaskGraph::run; phase code must not use it to
/// smuggle extra pool owners past the no-nested-pools rule.
class ParallelTaskScope {
 public:
  ParallelTaskScope() noexcept;
  ~ParallelTaskScope();
  ParallelTaskScope(const ParallelTaskScope&) = delete;
  ParallelTaskScope& operator=(const ParallelTaskScope&) = delete;

 private:
  bool previous_;
};

}  // namespace detail

}  // namespace argo::support
