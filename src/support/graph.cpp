#include "support/graph.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>

#include "support/diagnostics.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace argo::support {

namespace {

// Set while the current thread executes a node body, on a team thread or
// on the calling thread; runTeam refuses to start a team while it is set.
thread_local bool tlInNode = false;

// Restores (not clears) the previous value, so a one-thread graph run
// nested inside a node leaves the flag set for the rest of the enclosing
// node, and a pooled run later in that node is still rejected.
class NodeScope {
 public:
  NodeScope() noexcept : previous_(tlInNode) { tlInNode = true; }
  ~NodeScope() { tlInNode = previous_; }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  bool previous_;
};

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

unsigned effectiveParallelism(int threads, std::size_t n) {
  unsigned resolved = threads > 0 ? static_cast<unsigned>(threads)
                                  : std::thread::hardware_concurrency();
  if (resolved == 0) resolved = 1;
  if (n < resolved) resolved = static_cast<unsigned>(n);
  return resolved == 0 ? 1u : resolved;
}

namespace detail {

void runTeam(unsigned executors, const std::function<void()>& body) {
  if (executors <= 1) {
    body();
    return;
  }
  if (tlInNode) {
    throw ToolchainError(
        "support::TaskGraph::run: nested pooled use from a parallel task; "
        "inner phases must run with threads = 1");
  }
  // A member forwards an exception escaping `body` instead of ending the
  // program, and the team is joined on every path, a failed spawn
  // included. The caller is member 0, so one fewer thread is spawned.
  std::vector<std::exception_ptr> errors(executors);
  const auto member = [&](unsigned index) {
    try {
      body();
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };
  std::vector<std::thread> team;
  team.reserve(executors - 1);
  const auto joinTeam = [&team] {
    for (std::thread& thread : team) thread.join();
  };
  try {
    for (unsigned i = 1; i < executors; ++i) team.emplace_back(member, i);
  } catch (...) {
    joinTeam();
    throw;
  }
  member(0);
  joinTeam();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace detail

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
  if (from >= to) {
    throw ToolchainError(
        "support::TaskGraph: edge from node " + std::to_string(from) + " '" +
        nodes_[from].name + "' to node " + std::to_string(to) + " '" +
        nodes_[to].name + "' does not point forward (add each node after "
        "its predecessors)");
  }
  nodes_[from].successors.push_back(to);
  nodes_[to].indegree += 1;
}

const std::string& TaskGraph::nodeName(NodeId id) const {
  if (id >= nodes_.size()) {
    throw ToolchainError("support::TaskGraph: unknown node id");
  }
  return nodes_[id].name;
}

void TaskGraph::run(int threads) {
  if (nodes_.empty()) return;
  const std::size_t n = nodes_.size();

  struct RunState {
    std::mutex mutex;
    std::condition_variable wake;
    // Lowest ready id first: a team of one runs the nodes in id order,
    // so single-threaded runs are exactly reproducible.
    // Larger teams may finish nodes in any order; slot discipline makes
    // the outcome the same.
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
        ready;
    std::size_t finished = 0;  // executed or skipped
  };
  RunState state;
  // Countdowns and poison marks are read and written under state.mutex,
  // with one exception: an executor reads its own node's mark after
  // popping the node. That is safe because every write to the mark (a
  // predecessor finishing) happens before the node is pushed, the push and
  // the pop hold the same mutex, and no thread writes the mark after the
  // push. The marks are chars, not vector<bool> bits, so writing a
  // neighbour's mark never touches the same memory location.
  std::vector<int> pending(n);
  std::vector<char> poisoned(n, 0);
  std::vector<std::exception_ptr> errors(n);
  for (NodeId id = 0; id < n; ++id) {
    pending[id] = nodes_[id].indegree;
    if (pending[id] == 0) state.ready.push(id);
  }

  // The drain loop every team member runs: pop a ready node, execute (or
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
        id = state.ready.top();
        state.ready.pop();
      }

      const bool skip = poisoned[id] != 0;
      bool failed = false;
      if (!skip) {
        nodesRunCounter().add();
        NodeScope scope;
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
          if (failed || skip) poisoned[s] = 1;
          if (--pending[s] == 0) state.ready.push(s);
        }
        state.finished += 1;
      }
      // Wake sleepers for the newly ready nodes — and unconditionally on
      // every finish so the final node releases the waiting executors.
      state.wake.notify_all();
    }
  };

  // One drain loop per team member: the calling thread plus one transient
  // thread per extra member. A team of one runs on the calling thread
  // alone, and runTeam rejects a nested team of two or more.
  detail::runTeam(effectiveParallelism(threads, n), drain);

  // A team of several may finish nodes out of id order, so the lowest
  // failing id is found after the run.
  for (NodeId id = 0; id < n; ++id) {
    if (errors[id]) std::rethrow_exception(errors[id]);
  }
}

}  // namespace argo::support
