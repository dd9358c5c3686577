// Deterministic dependency-graph job executor: the generalization of
// support::parallelFor from an index space to a DAG of named nodes.
//
// parallelFor models one phase of independent items with a barrier at the
// end; a pipeline of dependent stages run that way pays a full rendezvous
// after every stage even when item A's stage 3 is independent of item B's
// stage 1. TaskGraph removes those barriers: callers declare nodes with
// explicit edges on the *true* data dependences, and independent chains
// overlap freely — a node starts the moment its last predecessor finishes,
// on whichever team thread is free.
//
// The contract mirrors parallelFor's determinism contract exactly (see
// docs/ARCHITECTURE.md, "Determinism contract" and "Task-graph executor"):
//
//  * Per-node output slots, ladder-order assembly. The executor never
//    imposes an ordering on side effects; node bodies write into their own
//    slots (captured by the node's closure) and the caller reduces the
//    slots strictly in node-id order after run() returns. Node ids are
//    assigned consecutively by addNode(), so "node-id order" is the same
//    ladder order parallelFor callers reduce in — the result is
//    bit-identical for any thread count and any completion interleaving.
//  * Failure determinism. A node that throws marks every transitive
//    successor as skipped (their bodies never run — their inputs are
//    missing); every node with no failed ancestor still executes, even
//    while unrelated nodes fail. When several nodes throw, the exception
//    of the *lowest* node id propagates from run() — the graph analogue of
//    parallelFor's lowest-failing-index rule. Which nodes run, which are
//    skipped, and which exception surfaces are all independent of the
//    thread count and the interleaving.
//  * Edges point forward. addEdge(from, to) requires from < to, so every
//    graph is acyclic by construction and node-id order is a topological
//    order; callers add each node after its predecessors.
//  * No nested pools. run() with a resolved parallelism > 1 from inside a
//    parallelFor task or another TaskGraph node throws, exactly like
//    parallelFor; a resolved parallelism of 1 drains the graph on the
//    calling thread and is always allowed. TaskGraph::run is the second
//    sanctioned owner of the thread budget next to parallelFor
//    (support/parallel.h); node bodies must run their inner phases with
//    threads = 1.
//
// Execution: run() seeds an indegree-countdown ready queue with the
// sources and drains it on a transient thread team (support::detail::
// runTeam: the calling thread plus N-1 std::threads, one drain loop
// each; a team of one is the calling thread alone). Finishing a node
// decrements each successor's pending count under the run's one mutex and
// enqueues those that hit zero. The queue pops the lowest ready id first, so a
// one-thread run executes in node-id order.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace argo::support {

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
  /// ToolchainError on a nested pooled run; otherwise rethrows the lowest
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

}  // namespace argo::support
