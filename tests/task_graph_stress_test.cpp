// support::TaskGraph under stress: seeded randomized DAGs (wide, deep and
// skewed shapes) executed with 64-thread oversubscription, with repeat-run
// determinism checks — the graph analogue of the parallelFor
// oversubscription suites. The suite runs under ASan+UBSan and
// TSan in CI (the tsan job's ctest filter matches the TaskGraph prefix).
#include "support/graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.h"
#include "support/rng.h"

namespace argo::support {
namespace {

/// One randomized DAG: nodes 0..n-1 with every edge pointing from a lower
/// to a higher id (acyclic by construction). Each node hashes its
/// predecessors' slots into its own, so a missed edge, a stale read, or a
/// double execution changes the assembled ladder. Heap-allocated because
/// the node closures capture `this`.
struct RandomDag {
  TaskGraph graph;
  std::vector<std::vector<TaskGraph::NodeId>> predecessors;
  std::vector<std::uint64_t> slots;

  RandomDag(const RandomDag&) = delete;
  RandomDag& operator=(const RandomDag&) = delete;

  explicit RandomDag(std::size_t n) : predecessors(n), slots(n, 0) {
    for (TaskGraph::NodeId id = 0; id < n; ++id) {
      graph.addNode("n" + std::to_string(id), [this, id] {
        std::uint64_t value = 0x9e3779b97f4a7c15ull * (id + 1);
        for (TaskGraph::NodeId p : predecessors[id]) {
          value = (value ^ slots[p]) * 0xbf58476d1ce4e5b9ull;
          value ^= value >> 27;
        }
        slots[id] = value;
      });
    }
  }

  void addEdge(TaskGraph::NodeId from, TaskGraph::NodeId to) {
    graph.addEdge(from, to);
    predecessors[to].push_back(from);
  }
};

/// Uniform index in [0, n). Requires n >= 1.
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/// Wide: a handful of roots fanning out over a flat field — maximum ready
/// width, minimum depth.
std::unique_ptr<RandomDag> buildWide(std::uint64_t seed, std::size_t n) {
  auto dag = std::make_unique<RandomDag>(n);
  Rng rng(seed);
  constexpr std::size_t kRoots = 3;
  for (TaskGraph::NodeId id = kRoots; id < n; ++id) {
    // Most nodes hang off one root; some are free-standing.
    if (rng.uniformDouble() < 0.7) {
      dag->addEdge(pick(rng, kRoots), id);
    }
  }
  return dag;
}

/// Deep: parallel chains with occasional forward cross-links — minimum
/// ready width, maximum depth (the ready queue is nearly starved).
std::unique_ptr<RandomDag> buildDeep(std::uint64_t seed, std::size_t chains,
                                     std::size_t length) {
  auto dag = std::make_unique<RandomDag>(chains * length);
  Rng rng(seed);
  for (std::size_t c = 0; c < chains; ++c) {
    for (std::size_t k = 1; k < length; ++k) {
      const TaskGraph::NodeId at = c * length + k;
      dag->addEdge(at - 1, at);
      if (rng.uniformDouble() < 0.1) {
        // Forward cross-link from an earlier node of a random chain.
        const std::size_t victim = pick(rng, chains);
        const TaskGraph::NodeId from = victim * length + pick(rng, k);
        if (from != at) dag->addEdge(from, at);
      }
    }
  }
  return dag;
}

/// Skewed: random layer widths between 1 and 20 — alternating wide
/// fan-outs and single-node bottlenecks, each node with 1..3 predecessors
/// drawn from anywhere earlier.
std::unique_ptr<RandomDag> buildSkewed(std::uint64_t seed, std::size_t n) {
  auto dag = std::make_unique<RandomDag>(n);
  Rng rng(seed);
  std::size_t layerStart = 0;
  std::size_t layerWidth = 1 + pick(rng, 20);
  for (TaskGraph::NodeId id = layerWidth; id < n; ++id) {
    if (id >= layerStart + layerWidth) {
      layerStart = id;
      layerWidth = 1 + pick(rng, 20);
    }
    const int fanIn = 1 + static_cast<int>(pick(rng, 3));
    for (int f = 0; f < fanIn; ++f) {
      const TaskGraph::NodeId from = pick(rng, layerStart);
      if (from != id) dag->addEdge(from, id);
    }
  }
  return dag;
}

constexpr int kOversubscribed = 64;  // threads >> cores on any CI host
constexpr int kRepeats = 8;

void expectDeterministicLadder(RandomDag& dag, RandomDag& reference,
                               const char* shape) {
  reference.graph.run(1);
  const std::vector<std::uint64_t> expected = reference.slots;
  for (int run = 0; run < kRepeats; ++run) {
    dag.slots.assign(dag.slots.size(), 0);
    dag.graph.run(kOversubscribed);  // run() is repeatable
    ASSERT_EQ(dag.slots, expected) << shape << " run " << run;
  }
}

TEST(TaskGraphStress, WideDagIsDeterministicOversubscribed) {
  auto dag = buildWide(11, 300);
  auto reference = buildWide(11, 300);
  expectDeterministicLadder(*dag, *reference, "wide");
}

TEST(TaskGraphStress, DeepChainsAreDeterministicOversubscribed) {
  auto dag = buildDeep(12, 8, 40);
  auto reference = buildDeep(12, 8, 40);
  expectDeterministicLadder(*dag, *reference, "deep");
}

TEST(TaskGraphStress, SkewedLayersAreDeterministicOversubscribed) {
  auto dag = buildSkewed(13, 250);
  auto reference = buildSkewed(13, 250);
  expectDeterministicLadder(*dag, *reference, "skewed");
}

TEST(TaskGraphStress, ManySeedsManyShapesOneLadderEach) {
  // A broader sweep at a smaller size: every seed builds all three shapes
  // and each must reproduce its own sequential ladder when oversubscribed.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    for (int shape = 0; shape < 3; ++shape) {
      auto build = [&](std::uint64_t s) {
        switch (shape) {
          case 0: return buildWide(s, 120);
          case 1: return buildDeep(s, 4, 30);
          default: return buildSkewed(s, 120);
        }
      };
      auto reference = build(seed);
      reference->graph.run(1);
      auto dag = build(seed);
      dag->graph.run(kOversubscribed);
      ASSERT_EQ(dag->slots, reference->slots)
          << "seed " << seed << " shape " << shape;
    }
  }
}

TEST(TaskGraphStress, FailurePatternIsDeterministicUnderContention) {
  // Random ~8% of nodes throw over a random forward DAG. Which exception
  // propagates and which nodes execute vs. skip must be identical across
  // oversubscribed repeats — and identical to the sequential run.
  constexpr std::size_t kN = 200;
  const auto build = [](std::vector<std::atomic<int>>& ran) {
    Rng marks(22);
    std::vector<char> fails(kN, 0);
    for (std::size_t id = 0; id < kN; ++id) {
      fails[id] = marks.uniformDouble() < 0.08;
    }
    auto graph = std::make_unique<TaskGraph>();
    for (TaskGraph::NodeId id = 0; id < kN; ++id) {
      graph->addNode("n" + std::to_string(id),
                     [&ran, id, doFail = fails[id] != 0] {
                       ran[id].fetch_add(1);
                       if (doFail) {
                         throw ToolchainError("boom at " +
                                              std::to_string(id));
                       }
                     });
    }
    Rng edges(21);
    for (TaskGraph::NodeId id = 1; id < kN; ++id) {
      const int fanIn = static_cast<int>(pick(edges, 3));
      for (int f = 0; f < fanIn; ++f) {
        const TaskGraph::NodeId from = pick(edges, id);
        graph->addEdge(from, id);
      }
    }
    return graph;
  };

  std::vector<std::atomic<int>> referenceRan(kN);
  auto reference = build(referenceRan);
  std::string expectedError;
  try {
    reference->run(1);
  } catch (const ToolchainError& error) {
    expectedError = error.what();
  }
  ASSERT_FALSE(expectedError.empty()) << "seed produced no failing node";
  std::vector<int> expectedRan(kN);
  for (std::size_t id = 0; id < kN; ++id) {
    expectedRan[id] = referenceRan[id].load();
  }

  for (int run = 0; run < kRepeats; ++run) {
    std::vector<std::atomic<int>> ran(kN);
    auto graph = build(ran);
    try {
      graph->run(kOversubscribed);
      FAIL() << "expected ToolchainError, run " << run;
    } catch (const ToolchainError& error) {
      EXPECT_EQ(std::string(error.what()), expectedError) << "run " << run;
    }
    for (std::size_t id = 0; id < kN; ++id) {
      ASSERT_EQ(ran[id].load(), expectedRan[id])
          << "run " << run << " node " << id;
    }
  }
}

}  // namespace
}  // namespace argo::support
