// The thread team every multi-thread TaskGraph run starts
// (support::detail::runTeam), and the index-range form of the graph: n
// nodes without edges, node i running fn(i). Covers the knob resolution,
// empty and single ranges, the failure contract on that form (every index
// runs; the lowest failing index's exception propagates, on the inline and
// the pooled path), the no-nested-teams rule, and the team itself: its
// size, back-to-back team churn, and a ProgramGenerator-driven stress test
// (pooled evaluation of random programs must match sequential evaluation
// bit for bit). The ParallelFor suites keep the names of the index-range
// helper the graph replaced; they check the same clauses on the graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ir/evaluator.h"
#include "support/diagnostics.h"
#include "support/graph.h"
#include "testutil.h"

namespace argo::support {
namespace {

/// The index-range form of the graph: one node per index and no edges,
/// run on `threads` (TaskGraph::run's convention).
void forEachIndex(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  TaskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    graph.addNode("index/" + std::to_string(i), [&fn, i] { fn(i); });
  }
  graph.run(threads);
}

TEST(EffectiveParallelism, ResolvesKnobAndClampsToRange) {
  EXPECT_EQ(effectiveParallelism(4, 100), 4u);
  EXPECT_EQ(effectiveParallelism(4, 2), 2u);   // never more than n
  EXPECT_EQ(effectiveParallelism(1, 100), 1u);
  EXPECT_GE(effectiveParallelism(0, 100), 1u);  // 0 = hardware threads
  EXPECT_EQ(effectiveParallelism(-3, 1), 1u);
  EXPECT_EQ(effectiveParallelism(8, 0), 1u);   // empty range still >= 1
}

TEST(ParallelFor, EmptyRangeIsANoOpOnBothPaths) {
  for (int threads : {1, 4}) {
    forEachIndex(0, threads,
                 [](std::size_t) { FAIL() << "must not be called"; });
  }
}

TEST(ParallelFor, SingleElementRunsExactlyOnce) {
  for (int threads : {1, 8}) {
    int calls = 0;
    std::size_t seen = 99;
    forEachIndex(1, threads, [&](std::size_t i) {
      ++calls;
      seen = i;
    });
    EXPECT_EQ(calls, 1) << "threads " << threads;
    EXPECT_EQ(seen, 0u);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 500;
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(kN);
    forEachIndex(kN, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ParallelFor, LowestFailingIndexWinsOnBothPaths) {
  for (int threads : {1, 4}) {
    for (int run = 0; run < 5; ++run) {
      try {
        forEachIndex(64, threads, [](std::size_t i) {
          if (i % 7 == 5) {  // lowest failing index is 5
            throw ToolchainError("boom at " + std::to_string(i));
          }
        });
        FAIL() << "expected ToolchainError";
      } catch (const ToolchainError& e) {
        EXPECT_STREQ(e.what(), "boom at 5") << "threads " << threads;
      }
    }
  }
}

TEST(ParallelFor, FailureStillRunsEveryIndexOnBothPaths) {
  for (int threads : {1, 4}) {
    std::atomic<int> executed{0};
    EXPECT_THROW(forEachIndex(100, threads,
                              [&](std::size_t i) {
                                executed.fetch_add(1);
                                if (i == 0) throw std::runtime_error("x");
                              }),
                 std::runtime_error);
    EXPECT_EQ(executed.load(), 100) << "threads " << threads;
  }
}

TEST(ParallelFor, NestedPooledUseIsRejected) {
  // A pooled inner run inside any node must throw — on a team thread and
  // on the calling thread alike. Every index fails the same way, and the
  // lowest index's ToolchainError surfaces.
  for (int outerThreads : {1, 4}) {
    EXPECT_THROW(forEachIndex(8, outerThreads,
                              [](std::size_t) {
                                forEachIndex(4, 2, [](std::size_t) {});
                              }),
                 ToolchainError)
        << "outer threads " << outerThreads;
  }
}

TEST(ParallelFor, NestedInlineUseIsAllowed) {
  // A threads = 1 inner run drains on the node's own thread.
  std::atomic<int> total{0};
  forEachIndex(8, 4, [&](std::size_t) {
    forEachIndex(16, 1, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelFor, GuardSurvivesANestedInlineLoop) {
  // Regression: the inner inline run's node scopes must restore — not
  // clear — the in-node flag, so a pooled request later in the same outer
  // node is still rejected.
  std::atomic<int> guardFired{0};
  for (int outerThreads : {1, 4}) {
    try {
      forEachIndex(4, outerThreads, [&](std::size_t) {
        forEachIndex(2, 1, [](std::size_t) {});
        forEachIndex(2, 2, [](std::size_t) {});  // must throw
      });
    } catch (const ToolchainError&) {
      guardFired.fetch_add(1);
    }
  }
  EXPECT_EQ(guardFired.load(), 2);
}

TEST(ParallelFor, InParallelTaskFlagScopesToTaskBodies) {
  // The in-node flag is set inside every node body, on every team member
  // (a pooled inner run is rejected there), and clear outside them (the
  // same pooled run is accepted before and after).
  forEachIndex(2, 2, [](std::size_t) {});
  std::atomic<int> rejected{0};
  EXPECT_THROW(forEachIndex(32, 4,
                            [&](std::size_t) {
                              try {
                                forEachIndex(2, 2, [](std::size_t) {});
                              } catch (const ToolchainError&) {
                                rejected.fetch_add(1);
                                throw;
                              }
                            }),
               ToolchainError);
  EXPECT_EQ(rejected.load(), 32);
  forEachIndex(2, 2, [](std::size_t) {});
}

TEST(ParallelFor, PooledUseFromAPlainThreadIsAllowedAfterATask) {
  // The rejection flag must clear once a node body returns, so back-to-back
  // runs on the same thread keep working.
  forEachIndex(4, 2, [](std::size_t) {});
  std::atomic<int> count{0};
  forEachIndex(4, 2, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

// ------------------------------------------------- Oversubscription
// The determinism contract with threads ≫ hardware cores: per-index
// results, the propagated exception, and the nested-pool rejection must
// all be independent of how the OS schedules the oversubscribed workers.
// Repeat-until loops explore many interleavings per test.

TEST(ParallelForOversubscribed, PerIndexResultsAreIdenticalAcrossRuns) {
  constexpr std::size_t kN = 300;
  std::vector<long> expected(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    expected[i] = static_cast<long>(i * i);
  }
  for (int run = 0; run < 15; ++run) {
    std::vector<long> out(kN, -1);
    forEachIndex(kN, 64, [&](std::size_t i) {
      out[i] = static_cast<long>(i * i);
    });
    EXPECT_EQ(out, expected) << "run " << run;
  }
}

TEST(ParallelForOversubscribed, LowestFailingIndexWinsUnderContention) {
  for (int run = 0; run < 10; ++run) {
    try {
      forEachIndex(200, 64, [](std::size_t i) {
        if (i >= 100) {  // half the range fails; 100 is the lowest
          throw ToolchainError("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& e) {
      EXPECT_STREQ(e.what(), "boom at 100") << "run " << run;
    }
  }
}

TEST(ParallelForOversubscribed, NestedPoolRejectionHoldsOnEveryWorker) {
  // All 64 node bodies attempt a pooled inner run; each must be
  // rejected — contention must not let one slip through the guard.
  std::atomic<int> rejected{0};
  EXPECT_THROW(forEachIndex(64, 64,
                            [&](std::size_t) {
                              try {
                                forEachIndex(2, 2, [](std::size_t) {});
                              } catch (const ToolchainError&) {
                                rejected.fetch_add(1);
                                throw;
                              }
                            }),
               ToolchainError);
  EXPECT_EQ(rejected.load(), 64);
}

// ------------------------------------------------- Thread team
// The `ThreadPool` suites cover the team of threads a pooled graph run
// starts: detail::runTeam's team size, and index-range graphs on teams
// that start and join on every run — index coverage, the failure
// contract, team churn, and generated programs — right-sized and
// oversubscribed.

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  // A team of N runs its body once on each of N distinct threads, the
  // calling thread among them; the hardware-threads default (0) resolves
  // to a team of at least one.
  const auto memberThreads = [](unsigned executors) {
    std::mutex mutex;
    std::vector<std::thread::id> ids;
    detail::runTeam(executors, [&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ids.push_back(std::this_thread::get_id());
    });
    return ids;
  };
  const unsigned defaultSize = effectiveParallelism(0, 1024);
  EXPECT_GE(defaultSize, 1u);
  EXPECT_EQ(memberThreads(defaultSize).size(), defaultSize);
  const std::vector<std::thread::id> four = memberThreads(4);
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(std::set<std::thread::id>(four.begin(), four.end()).size(), 4u);
  EXPECT_NE(std::find(four.begin(), four.end(), std::this_thread::get_id()),
            four.end());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  forEachIndex(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  forEachIndex(0, 2, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // Several indices throw; the team must deterministically surface the
  // lowest one no matter which member hit its failure first.
  for (int run = 0; run < 10; ++run) {
    try {
      forEachIndex(64, 4, [](std::size_t i) {
        if (i % 7 == 3) {  // lowest failing index is 3
          throw ToolchainError("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& e) {
      EXPECT_STREQ(e.what(), "boom at 3");
    }
  }
}

TEST(ThreadPool, ParallelForFailureStillRunsAllIndices) {
  std::atomic<int> executed{0};
  EXPECT_THROW(forEachIndex(100, 4,
                            [&](std::size_t i) {
                              executed.fetch_add(1);
                              if (i == 0) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, PoolReuseAcrossManyRuns) {
  // Every pooled run starts a fresh team and joins it before returning,
  // so back-to-back runs must neither lose an index nor leak a thread
  // into the next run.
  for (int run = 0; run < 50; ++run) {
    std::atomic<long> sum{0};
    forEachIndex(128, 4, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 128L * 127L / 2L) << "run " << run;
  }
}

TEST(ThreadPool, StressRandomProgramsPooledMatchesSequential) {
  // Evaluate 24 generated programs sequentially and pooled; each
  // evaluation is independent, so the pooled outputs must be identical.
  constexpr std::size_t kSeeds = 24;
  std::vector<std::unique_ptr<ir::Function>> fns;
  std::vector<ir::Environment> inputs;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    test::ProgramGenerator gen(1000 + seed);
    fns.push_back(gen.generate("stress" + std::to_string(seed)));
    inputs.push_back(gen.makeInputs(*fns.back()));
  }
  const auto evaluateAll = [&](int threads) {
    std::vector<ir::Environment> out(kSeeds);
    forEachIndex(kSeeds, threads, [&](std::size_t i) {
      ir::Environment env = inputs[i];
      ir::Evaluator(*fns[i]).run(env);
      out[i] = std::move(env);
    });
    return out;
  };

  const std::vector<ir::Environment> sequential = evaluateAll(1);
  const std::vector<ir::Environment> pooled = evaluateAll(4);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_TRUE(test::outputsMatch(*fns[i], sequential[i], pooled[i], 0.0))
        << "seed " << i;
  }
}

// Teams far larger than the hardware: constant preemption produces the
// interleavings a right-sized team rarely does; counts and propagated
// exceptions must never vary.

TEST(ThreadPoolOversubscribed, CoverageAndReductionStayExactAcrossRuns) {
  for (int run = 0; run < 20; ++run) {
    std::vector<std::atomic<int>> hits(512);
    std::atomic<long> sum{0};
    forEachIndex(512, 64, [&](std::size_t i) {
      hits[i].fetch_add(1);
      sum.fetch_add(static_cast<long>(i));
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "run " << run << " index " << i;
    }
    EXPECT_EQ(sum.load(), 512L * 511L / 2L) << "run " << run;
  }
}

TEST(ThreadPoolOversubscribed, LowestFailingIndexStillWins) {
  for (int run = 0; run < 10; ++run) {
    try {
      forEachIndex(256, 32, [](std::size_t i) {
        if (i % 9 == 2) {  // lowest failing index is 2
          throw ToolchainError("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected ToolchainError";
    } catch (const ToolchainError& e) {
      EXPECT_STREQ(e.what(), "boom at 2") << "run " << run;
    }
  }
}

TEST(ThreadPoolOversubscribed, BackToBackPoolsConstructAndDrainCleanly) {
  // Team churn: every run spins up a fresh 48-member team, runs one
  // batch, and joins all of it.
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> count{0};
    forEachIndex(100, 48, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 100) << "run " << run;
  }
}

}  // namespace
}  // namespace argo::support
