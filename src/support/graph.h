// Deterministic dependency-graph job executor: the one place in the
// tool-chain that starts threads.
//
// scenarios::runEval lays a batch out as a DAG — scenario generation,
// per-cell stage prefixes, per-(cell, policy) units — and runs it here.
// Callers declare nodes with explicit edges on the *true* data
// dependences, and independent chains overlap freely: a node starts the
// moment its last predecessor finishes, on whichever team thread is free.
// Everything a node body calls (a whole core::Toolchain run included)
// runs on that one thread.
//
// The determinism contract (docs/ARCHITECTURE.md, "Determinism
// contract"):
//
//  * Per-node output slots, ladder-order assembly. The executor never
//    imposes an ordering on side effects; node bodies write into their own
//    slots (captured by the node's closure) and the caller reduces the
//    slots strictly in node-id order after run() returns. Node ids are
//    assigned consecutively by addNode(), so the result is bit-identical
//    for any thread count and any completion interleaving.
//  * Failure determinism. A node that throws marks every transitive
//    successor as skipped (their bodies never run — their inputs are
//    missing); every node with no failed ancestor still executes, even
//    while unrelated nodes fail. When several nodes throw, the exception
//    of the *lowest* node id propagates from run(). Which nodes run, which
//    are skipped, and which exception surfaces are all independent of the
//    thread count and the interleaving.
//  * Edges point forward. addEdge(from, to) requires from < to, so every
//    graph is acyclic by construction and node-id order is a topological
//    order; callers add each node after its predecessors.
//  * No nested teams. run() with a resolved parallelism > 1 from inside
//    another graph's node throws; a resolved parallelism of 1 drains the
//    graph on the calling thread and is always allowed.
//
// Execution: run() seeds an indegree-countdown ready queue with the
// sources and drains it on a transient thread team (detail::runTeam: the
// calling thread plus N-1 spawned threads, one drain loop each; a team of
// one is the calling thread alone). Finishing a node decrements each
// successor's pending count under the run's one mutex and enqueues those
// that hit zero. The queue pops the lowest ready id first, so a
// one-thread run executes in node-id order.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace argo::support {

/// Worker count for `n` independent items given a thread knob:
/// `threads <= 0` means one per hardware thread, otherwise `threads`;
/// never more than `n` and never less than 1.
[[nodiscard]] unsigned effectiveParallelism(int threads, std::size_t n);

class TaskGraph {
 public:
  using NodeId = std::size_t;

  /// Adds a node and returns its id; ids are consecutive from 0 in
  /// insertion order (the ladder order of the determinism contract).
  /// `name` appears in diagnostics (edge errors); it need not be unique.
  /// Throws ToolchainError when `fn` is empty.
  NodeId addNode(std::string name, std::function<void()> fn);

  /// Declares that `from` must complete before `to` starts. Throws
  /// ToolchainError on an unknown id, and unless `from < to` (naming both
  /// nodes): edges point forward, so no graph can hold a cycle. A
  /// duplicate edge is counted and released twice, which stays exact.
  void addEdge(NodeId from, NodeId to);

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::string& nodeName(NodeId id) const;

  /// Executes every node whose ancestors all succeed, blocking until the
  /// whole graph has been executed or deterministically skipped. `threads`
  /// follows the effectiveParallelism() convention (0 = hardware threads,
  /// 1 = the calling thread alone, clamped to the node count). May be
  /// called repeatedly — per-run state is rebuilt each time. Throws
  /// ToolchainError on a nested team; otherwise rethrows the lowest
  /// failing node id's exception after the run drains.
  void run(int threads);

 private:
  struct Node {
    std::string name;
    std::function<void()> fn;
    std::vector<NodeId> successors;
    int indegree = 0;
  };

  std::vector<Node> nodes_;
};

namespace detail {

/// Runs `body` on `executors` threads at once — the calling thread plus
/// `executors - 1` spawned threads — and returns once all of them
/// have returned (the team is joined). `executors <= 1` calls `body`
/// inline. A team of two or more started from inside a graph node throws
/// ToolchainError before anything runs (the no-nested-teams check).
/// TaskGraph::run catches per node, which is what keeps its failure
/// contract deterministic; an exception that still escapes `body` is
/// rethrown after the join (the lowest team member's first).
void runTeam(unsigned executors, const std::function<void()>& body);

}  // namespace detail

}  // namespace argo::support
