#include "support/graph.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <queue>

#include "support/diagnostics.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace argo::support {

namespace {

MetricCounter& nodesRunCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.nodes_run");
  return counter;
}

MetricCounter& nodesSkippedCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.nodes_skipped");
  return counter;
}

MetricCounter& readyWaitCounter() {
  static MetricCounter& counter =
      MetricsRegistry::global().counter("graph.ready_wait_us");
  return counter;
}

}  // namespace

TaskGraph::NodeId TaskGraph::addNode(std::string name,
                                     std::function<void()> fn) {
  if (!fn) {
    throw ToolchainError("support::TaskGraph: node '" + name +
                         "' has no body");
  }
  nodes_.push_back(Node{std::move(name), std::move(fn), {}, 0});
  return nodes_.size() - 1;
}

void TaskGraph::addEdge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw ToolchainError(
        "support::TaskGraph: edge references an unknown node id");
  }
  if (from == to) {
    throw ToolchainError("support::TaskGraph: self-edge on node '" +
                         nodes_[from].name + "'");
  }
  std::vector<NodeId>& successors = nodes_[from].successors;
  if (std::find(successors.begin(), successors.end(), to) !=
      successors.end()) {
    return;  // duplicate dependences are harmless; keep indegrees exact
  }
  successors.push_back(to);
  nodes_[to].indegree += 1;
}

const std::string& TaskGraph::nodeName(NodeId id) const {
  if (id >= nodes_.size()) {
    throw ToolchainError("support::TaskGraph: unknown node id");
  }
  return nodes_[id].name;
}

void TaskGraph::checkAcyclic() const {
  const std::size_t n = nodes_.size();
  std::vector<int> pending(n);
  std::vector<NodeId> stack;
  std::size_t released = 0;
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = nodes_[id].indegree;
    if (pending[id] == 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++released;
    for (NodeId s : nodes_[id].successors) {
      if (--pending[s] == 0) stack.push_back(s);
    }
  }
  if (released == n) return;

  // Kahn's leftover (pending > 0) is the cycles plus everything only
  // reachable through them; peel nodes with no remaining successor inside
  // the leftover so the diagnostic names just the nodes on cyclic paths.
  std::vector<char> offending(n, 0);
  std::vector<int> liveSuccessors(n, 0);
  for (NodeId id = 0; id < n; ++id) offending[id] = pending[id] > 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!offending[id]) continue;
    for (NodeId s : nodes_[id].successors) {
      if (offending[s]) liveSuccessors[id] += 1;
    }
  }
  stack.clear();
  for (NodeId id = 0; id < n; ++id) {
    if (offending[id] && liveSuccessors[id] == 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    offending[id] = 0;
    for (NodeId p = 0; p < n; ++p) {
      if (!offending[p]) continue;
      const std::vector<NodeId>& successors = nodes_[p].successors;
      if (std::find(successors.begin(), successors.end(), id) !=
              successors.end() &&
          --liveSuccessors[p] == 0) {
        stack.push_back(p);
      }
    }
  }

  std::string message =
      "support::TaskGraph::run: dependency cycle among nodes:";
  bool first = true;
  for (NodeId id = 0; id < n; ++id) {
    if (!offending[id]) continue;
    message += first ? " '" : ", '";
    message += nodes_[id].name;
    message += '\'';
    first = false;
  }
  throw ToolchainError(message);
}

void TaskGraph::run(int threads) {
  if (nodes_.empty()) return;
  checkAcyclic();
  const unsigned resolved = effectiveParallelism(threads, nodes_.size());
  if (resolved <= 1) {
    runInline();
    return;
  }
  runPooled(resolved);
}

void TaskGraph::runInline() {
  // Deterministic reference order: topological, lowest ready node id
  // first. The pooled path is free to execute in any order — slot
  // discipline makes the outcomes identical — but a fixed inline order
  // keeps single-threaded runs exactly reproducible for debugging.
  const std::size_t n = nodes_.size();
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
      ready;
  std::vector<int> pending(n);
  std::vector<char> poisoned(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = nodes_[id].indegree;
    if (pending[id] == 0) ready.push(id);
  }

  std::exception_ptr error;
  NodeId errorId = n;
  while (!ready.empty()) {
    const NodeId id = ready.top();
    ready.pop();
    bool failed = false;
    if (!poisoned[id]) {
      nodesRunCounter().add();
      detail::ParallelTaskScope scope;
      TraceSpan span("graph", nodes_[id].name);
      try {
        nodes_[id].fn();
      } catch (...) {
        // Execution order is not id order (an edge may point from a high
        // id to a low one), so track the minimum failing id explicitly.
        if (id < errorId) {
          error = std::current_exception();
          errorId = id;
        }
        failed = true;
      }
    } else {
      nodesSkippedCounter().add();
    }
    for (NodeId s : nodes_[id].successors) {
      if (failed || poisoned[id]) poisoned[s] = 1;
      if (--pending[s] == 0) ready.push(s);
    }
  }
  if (error) std::rethrow_exception(error);
}

void TaskGraph::runPooled(unsigned resolved) {
  const std::size_t n = nodes_.size();

  struct RunState {
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<TaskGraph::NodeId> ready;
    std::size_t finished = 0;  // executed or skipped
  };
  RunState state;
  // Countdown counters and poison marks live outside the mutex: finishing
  // a node decrements each successor's count with acq_rel, so the thread
  // that drops a count to zero has observed every predecessor's poison
  // store (and, transitively, its slot writes) before it publishes the
  // node to the ready queue.
  std::vector<std::atomic<int>> pending(n);
  std::vector<std::atomic<bool>> poisoned(n);
  std::vector<std::exception_ptr> errors(n);
  for (NodeId id = 0; id < n; ++id) {
    pending[id].store(nodes_[id].indegree, std::memory_order_relaxed);
    poisoned[id].store(false, std::memory_order_relaxed);
    if (nodes_[id].indegree == 0) state.ready.push_back(id);
  }

  // The drain loop every executor runs: pop a ready node, execute (or
  // skip) it, count down its successors, publish the newly ready ones.
  const auto drain = [&] {
    for (;;) {
      NodeId id;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        const auto readyOrDone = [&] {
          return !state.ready.empty() || state.finished == n;
        };
        if (!readyOrDone()) {
          // Ready-queue starvation, attributed: the time an executor
          // spends blocked here is the graph's critical-path debt.
          const auto waitBegin = std::chrono::steady_clock::now();
          state.wake.wait(lock, readyOrDone);
          readyWaitCounter().add(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - waitBegin)
                  .count()));
        }
        if (state.ready.empty()) return;  // all nodes accounted for
        id = state.ready.front();
        state.ready.pop_front();
      }

      const bool skip = poisoned[id].load(std::memory_order_relaxed);
      bool failed = false;
      if (!skip) {
        nodesRunCounter().add();
        detail::ParallelTaskScope scope;
        TraceSpan span("graph", nodes_[id].name);
        try {
          nodes_[id].fn();
        } catch (...) {
          errors[id] = std::current_exception();  // per-node slot
          failed = true;
        }
      } else {
        nodesSkippedCounter().add();
      }

      {
        std::lock_guard<std::mutex> lock(state.mutex);
        for (NodeId s : nodes_[id].successors) {
          if (failed || skip) {
            poisoned[s].store(true, std::memory_order_relaxed);
          }
          if (pending[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            state.ready.push_back(s);
          }
        }
        state.finished += 1;
      }
      // Wake sleepers for the newly ready nodes — and unconditionally on
      // every finish so the final node releases the waiting executors.
      state.wake.notify_all();
    }
  };

  // One drain loop per team thread; the team is the calling thread plus
  // `resolved - 1` transient threads, and runTeam rejects a nested run.
  detail::runTeam(resolved, "support::TaskGraph::run", drain);

  for (NodeId id = 0; id < n; ++id) {
    if (errors[id]) std::rethrow_exception(errors[id]);
  }
}

}  // namespace argo::support
