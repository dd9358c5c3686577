// support::TaskGraph: the dependency-graph job executor. Covers topology
// semantics (diamond, fan-out/fan-in, disconnected components, single
// node), forward-only edges with the pinned diagnostic, the failure contract
// (lowest node id wins, downstream skipped, independent nodes still run),
// the no-nested-teams rule, and byte-identity of ladder-order slot
// assembly across thread counts and repeated runs.
#include "support/graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/diagnostics.h"

namespace argo::support {
namespace {

TEST(TaskGraphTopology, EmptyGraphRunIsANoOp) {
  TaskGraph graph;
  EXPECT_EQ(graph.nodeCount(), 0u);
  for (int threads : {1, 4}) graph.run(threads);
}

TEST(TaskGraphTopology, SingleNodeRunsExactlyOncePerRun) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    int calls = 0;
    const auto id = graph.addNode("only", [&] { ++calls; });
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(graph.nodeName(id), "only");
    graph.run(threads);
    EXPECT_EQ(calls, 1) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DiamondRespectsEveryEdge) {
  // a -> {b, c} -> d: when b or c runs, a must be done; when d runs, both
  // arms must be done — for any thread count and interleaving.
  for (int threads : {1, 8}) {
    for (int run = 0; run < 5; ++run) {
      TaskGraph graph;
      std::atomic<bool> aDone{false}, bDone{false}, cDone{false};
      std::atomic<bool> ordered{true};
      const auto a = graph.addNode("a", [&] { aDone = true; });
      const auto b = graph.addNode("b", [&] {
        if (!aDone.load()) ordered = false;
        bDone = true;
      });
      const auto c = graph.addNode("c", [&] {
        if (!aDone.load()) ordered = false;
        cDone = true;
      });
      const auto d = graph.addNode("d", [&] {
        if (!bDone.load() || !cDone.load()) ordered = false;
      });
      graph.addEdge(a, b);
      graph.addEdge(a, c);
      graph.addEdge(b, d);
      graph.addEdge(c, d);
      graph.run(threads);
      EXPECT_TRUE(ordered.load()) << "threads " << threads << " run " << run;
    }
  }
}

TEST(TaskGraphTopology, FanOutFanInJoinsAllBranches) {
  constexpr std::size_t kWidth = 16;
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> middlesDone{0};
    int atSink = -1;
    const auto root = graph.addNode("root", [] {});
    std::vector<TaskGraph::NodeId> middles;
    for (std::size_t m = 0; m < kWidth; ++m) {
      middles.push_back(graph.addNode("middle/" + std::to_string(m),
                                      [&] { middlesDone.fetch_add(1); }));
      graph.addEdge(root, middles.back());
    }
    const auto sink = graph.addNode("sink", [&] {
      atSink = middlesDone.load();
    });
    for (const TaskGraph::NodeId middle : middles) {
      graph.addEdge(middle, sink);
    }
    graph.run(threads);
    EXPECT_EQ(atSink, static_cast<int>(kWidth)) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DisconnectedComponentsAllExecute) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> executed{0};
    // Two independent chains plus two isolated nodes.
    const auto a0 = graph.addNode("a0", [&] { executed.fetch_add(1); });
    const auto a1 = graph.addNode("a1", [&] { executed.fetch_add(1); });
    const auto b0 = graph.addNode("b0", [&] { executed.fetch_add(1); });
    const auto b1 = graph.addNode("b1", [&] { executed.fetch_add(1); });
    graph.addNode("lone0", [&] { executed.fetch_add(1); });
    graph.addNode("lone1", [&] { executed.fetch_add(1); });
    graph.addEdge(a0, a1);
    graph.addEdge(b0, b1);
    graph.run(threads);
    EXPECT_EQ(executed.load(), 6) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, DuplicateEdgesAreDeduplicated) {
  for (int threads : {1, 4}) {
    TaskGraph graph;
    int downstream = 0;
    const auto a = graph.addNode("a", [] {});
    const auto b = graph.addNode("b", [&] { ++downstream; });
    graph.addEdge(a, b);
    graph.addEdge(a, b);  // harmless: counted and released three times
    graph.addEdge(a, b);
    graph.run(threads);  // b still becomes ready once, after a
    EXPECT_EQ(downstream, 1) << "threads " << threads;
  }
}

TEST(TaskGraphTopology, InlineRunUsesLadderTopologicalOrder) {
  // The threads = 1 path executes the lowest ready node id first, and
  // every edge points forward, so a one-thread run executes in id order —
  // a fixed reference order that makes sequential runs exactly
  // reproducible. With the edges 0 -> 4 and 1 -> 2, a first-in-first-out
  // queue over the sources {0, 1, 3} would run 0, 1, 3, 4, 2 instead.
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> order;
  for (TaskGraph::NodeId id = 0; id < 5; ++id) {
    graph.addNode("n" + std::to_string(id), [&order, id] {
      order.push_back(id);
    });
  }
  graph.addEdge(0, 4);
  graph.addEdge(1, 2);
  graph.run(1);
  EXPECT_EQ(order, (std::vector<TaskGraph::NodeId>{0, 1, 2, 3, 4}));
}

TEST(TaskGraphValidation, CycleDiagnosticNamesTheOffendingNodes) {
  // b -> c -> d is a chain; the edge d -> b would close the cycle
  // b -> c -> d -> b. Edges must point forward (from a lower id to a
  // higher one), so addEdge rejects it on the spot, naming both nodes, and
  // the graph is left as it was: a run still executes every node once.
  TaskGraph graph;
  int executed = 0;
  const auto a = graph.addNode("a", [&] { ++executed; });
  const auto b = graph.addNode("b", [&] { ++executed; });
  const auto c = graph.addNode("c", [&] { ++executed; });
  const auto d = graph.addNode("d", [&] { ++executed; });
  graph.addEdge(a, b);
  graph.addEdge(b, c);
  graph.addEdge(c, d);
  try {
    graph.addEdge(d, b);
    FAIL() << "expected ToolchainError";
  } catch (const ToolchainError& error) {
    EXPECT_STREQ(error.what(),
                 "support::TaskGraph: edge from node 3 'd' to node 1 'b' "
                 "does not point forward (add each node after its "
                 "predecessors)");
  }
  for (int threads : {1, 4}) {
    executed = 0;
    graph.run(threads);
    EXPECT_EQ(executed, 4) << "threads " << threads;
  }
}

TEST(TaskGraphValidation, SelfEdgesUnknownIdsAndEmptyBodiesThrow) {
  TaskGraph graph;
  const auto a = graph.addNode("a", [] {});
  EXPECT_THROW(graph.addEdge(a, a), ToolchainError);
  EXPECT_THROW(graph.addEdge(a, 7), ToolchainError);
  EXPECT_THROW(graph.addEdge(7, a), ToolchainError);
  EXPECT_THROW((void)graph.nodeName(7), ToolchainError);
  EXPECT_THROW((void)graph.addNode("empty", std::function<void()>{}),
               ToolchainError);
}

TEST(TaskGraphFailure, LowestNodeIdExceptionWinsOnBothPaths) {
  // Nodes 2 and 6 both fail (independently); node 2's exception must
  // surface for any thread count, repeatedly.
  for (int threads : {1, 8}) {
    for (int run = 0; run < 5; ++run) {
      TaskGraph graph;
      for (TaskGraph::NodeId id = 0; id < 8; ++id) {
        graph.addNode("n" + std::to_string(id), [id] {
          if (id == 2 || id == 6) {
            throw ToolchainError("boom at " + std::to_string(id));
          }
        });
      }
      try {
        graph.run(threads);
        FAIL() << "expected ToolchainError";
      } catch (const ToolchainError& error) {
        EXPECT_STREQ(error.what(), "boom at 2")
            << "threads " << threads << " run " << run;
      }
    }
  }
}

TEST(TaskGraphFailure, LowestIdWinsEvenWhenItExecutesLast) {
  // On a team of several, completion order is not id order: node 1 depends
  // on the clean gate node 0, which holds until node 5 has failed, so node
  // 1 fails last. Node 1's exception must still be the one rethrown —
  // "lowest node id", not "first to fail". (A team of one runs in id
  // order, so there node 1 fails first; the gate then does not wait.)
  for (int threads : {1, 4}) {
    TaskGraph graph;
    std::atomic<bool> earlyFailed{false};
    graph.addNode("gate", [&earlyFailed, threads] {
      if (threads == 1) return;
      // Bounded, so a broken executor fails the test instead of hanging.
      const auto giveUp =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!earlyFailed.load() && std::chrono::steady_clock::now() < giveUp) {
        std::this_thread::yield();
      }
    });
    graph.addNode("late", [] { throw ToolchainError("boom at 1"); });
    for (TaskGraph::NodeId id = 2; id < 5; ++id) {
      graph.addNode("n" + std::to_string(id), [] {});
    }
    graph.addNode("early", [&earlyFailed] {
      earlyFailed = true;
      throw ToolchainError("boom at 5");
    });
    graph.addEdge(0, 1);
    try {
      graph.run(threads);
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& error) {
      EXPECT_STREQ(error.what(), "boom at 1") << "threads " << threads;
    }
  }
}

TEST(TaskGraphFailure, DownstreamIsSkippedIndependentNodesStillRun) {
  for (int threads : {1, 8}) {
    TaskGraph graph;
    std::atomic<int> executed{0};
    std::atomic<bool> skippedRan{false};
    const auto failing = graph.addNode("failing", [&] {
      executed.fetch_add(1);
      throw ToolchainError("boom");
    });
    const auto child = graph.addNode("child", [&] { skippedRan = true; });
    const auto grandchild =
        graph.addNode("grandchild", [&] { skippedRan = true; });
    const auto bystander =
        graph.addNode("bystander", [&] { executed.fetch_add(1); });
    const auto bystanderChild =
        graph.addNode("bystander/child", [&] { executed.fetch_add(1); });
    graph.addEdge(failing, child);
    graph.addEdge(child, grandchild);
    graph.addEdge(bystander, bystanderChild);
    EXPECT_THROW(graph.run(threads), ToolchainError);
    EXPECT_EQ(executed.load(), 3) << "threads " << threads;
    EXPECT_FALSE(skippedRan.load()) << "threads " << threads;
  }
}

TEST(TaskGraphFailure, FanInWithOneFailedArmIsSkipped) {
  // A sink whose inputs are half missing must not run — even though its
  // other predecessor succeeded.
  for (int threads : {1, 4}) {
    TaskGraph graph;
    std::atomic<bool> sinkRan{false};
    const auto ok = graph.addNode("ok", [] {});
    const auto bad =
        graph.addNode("bad", [] { throw ToolchainError("boom"); });
    const auto sink = graph.addNode("sink", [&] { sinkRan = true; });
    graph.addEdge(ok, sink);
    graph.addEdge(bad, sink);
    EXPECT_THROW(graph.run(threads), ToolchainError);
    EXPECT_FALSE(sinkRan.load()) << "threads " << threads;
  }
}

/// A graph of two nodes that each bump `runs`: two, because parallelism
/// is clamped to the node count, so a single-node graph would resolve to
/// an (allowed) inline run no matter the knob.
void addTwoCountingNodes(TaskGraph& graph, std::atomic<int>& runs) {
  graph.addNode("n0", [&runs] { runs.fetch_add(1); });
  graph.addNode("n1", [&runs] { runs.fetch_add(1); });
}

TEST(TaskGraphNesting, PooledRunInsideAParallelTaskIsRejected) {
  // Requesting a pooled run from inside another graph's node throws, on
  // every team member; threads = 1 runs inline and is always allowed.
  std::atomic<int> inlineRuns{0};
  TaskGraph outer;
  for (int node = 0; node < 4; ++node) {
    outer.addNode("outer", [&] {
      TaskGraph inner;
      addTwoCountingNodes(inner, inlineRuns);
      inner.run(1);  // inline: allowed
      inner.run(4);  // pooled: must throw
    });
  }
  EXPECT_THROW(outer.run(2), ToolchainError);
  EXPECT_EQ(inlineRuns.load(), 8);
}

TEST(TaskGraphNesting, NodeBodiesMayRunInlinePhasesButNotPooledOnes) {
  for (int threads : {1, 4}) {
    TaskGraph graph;
    std::atomic<int> innerRuns{0};
    graph.addNode("inline", [&] {
      TaskGraph inner;
      addTwoCountingNodes(inner, innerRuns);
      inner.run(1);
    });
    graph.addNode("pooled", [] {
      TaskGraph inner;
      inner.addNode("n0", [] {});
      inner.addNode("n1", [] {});
      inner.run(2);  // must throw in-node
    });
    EXPECT_THROW(graph.run(threads), ToolchainError) << "threads " << threads;
    EXPECT_EQ(innerRuns.load(), 2) << "threads " << threads;
  }
}

/// Layered value graph for the determinism checks: every node derives its
/// slot from its predecessors' slots, so any missed edge or stale read
/// changes the assembled ladder.
struct ValueGraph {
  TaskGraph graph;
  std::vector<std::uint64_t> slots;

  explicit ValueGraph(std::size_t layers, std::size_t width) {
    slots.assign(layers * width, 0);
    for (std::size_t layer = 0; layer < layers; ++layer) {
      for (std::size_t w = 0; w < width; ++w) {
        const std::size_t at = layer * width + w;
        const auto id = graph.addNode(
            "n" + std::to_string(at), [this, at, layer, width, w] {
              std::uint64_t value = 0x9e3779b97f4a7c15ull * (at + 1);
              if (layer > 0) {
                for (std::size_t p = 0; p < width; ++p) {
                  value ^= slots[(layer - 1) * width + p] * (p + 3);
                }
              }
              slots[at] = value ^ (value >> 31) ^ w;
            });
        if (layer > 0) {
          for (std::size_t p = 0; p < width; ++p) {
            graph.addEdge((layer - 1) * width + p, id);
          }
        }
      }
    }
  }

  /// Ladder-order assembly of the per-node slots.
  [[nodiscard]] std::vector<std::uint64_t> assemble() const { return slots; }
};

TEST(TaskGraphDeterminism, SlotAssemblyIsIdenticalAcrossThreadsAndRuns) {
  ValueGraph reference(6, 8);
  reference.graph.run(1);
  const std::vector<std::uint64_t> expected = reference.assemble();

  for (int threads : {1, 3, 8}) {
    ValueGraph subject(6, 8);
    for (int run = 0; run < 3; ++run) {  // run() is repeatable
      subject.graph.run(threads);
      EXPECT_EQ(subject.assemble(), expected)
          << "threads " << threads << " run " << run;
    }
  }
}

}  // namespace
}  // namespace argo::support
