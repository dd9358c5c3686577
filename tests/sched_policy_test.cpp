// Tests for the scheduling-policy framework (sched/policy.h): registry
// round-trips, unknown-name diagnostics and dispatch through the
// Scheduler facade.
#include <gtest/gtest.h>

#include <algorithm>

#include "diamond_fixture.h"
#include "htg/htg.h"
#include "sched/bnb.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "support/diagnostics.h"
#include "support/metrics.h"

namespace argo::sched {
namespace {

struct Fixture {
  std::unique_ptr<ir::Function> fn;
  htg::TaskGraph graph;
  adl::Platform platform;

  explicit Fixture(int chunks = 2, int cores = 4)
      : fn(test::makeDiamondFn()),
        graph(htg::expand(htg::buildHtg(*fn), htg::ExpandOptions{chunks})),
        platform(adl::makeRecoreXentiumBus(cores)) {}
};

TEST(PolicyRegistry, BuiltInsAreRegistered) {
  const auto names = registeredPolicyNames();
  for (const char* builtin :
       {"heft", "branch_and_bound", "annealed", "contention_oblivious"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
}

TEST(PolicyRegistry, NamesRoundTripThroughLookup) {
  for (const std::string& name : registeredPolicyNames()) {
    const SchedulingPolicy* policy = findPolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name, name);
    EXPECT_EQ(&policyOrThrow(name), policy);
  }
}

TEST(PolicyRegistry, NamesAreSortedAndUnique) {
  const auto names = registeredPolicyNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(PolicyRegistry, UnknownNameIsNullFromFindAndDiagnosticFromThrow) {
  EXPECT_EQ(findPolicy("no_such_policy"), nullptr);
  try {
    (void)policyOrThrow("no_such_policy");
    FAIL() << "expected ToolchainError";
  } catch (const support::ToolchainError& error) {
    const std::string what = error.what();
    // The diagnostic must name the offender and list the alternatives.
    EXPECT_NE(what.find("no_such_policy"), std::string::npos) << what;
    EXPECT_NE(what.find("heft"), std::string::npos) << what;
    EXPECT_NE(what.find("branch_and_bound"), std::string::npos) << what;
  }
}

TEST(PolicyRegistry, SchedulerSurfacesUnknownPolicyDiagnostic) {
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "no_such_policy";
  EXPECT_THROW((void)scheduler.run(options), support::ToolchainError);
}

TEST(PolicyRegistry, EveryBuiltInProducesAValidScheduleViaDispatch) {
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  for (const std::string& name : registeredPolicyNames()) {
    SchedOptions options;
    options.policy = name;
    options.saIterations = 100;  // keep the annealed run cheap
    const Schedule schedule = scheduler.run(options);
    EXPECT_GT(schedule.makespan, 0) << name;
    EXPECT_TRUE(validateSchedule(schedule, fx.graph, fx.platform,
                                 scheduler.timings())
                    .empty())
        << name;
    // Labels derive from the registry name (BnB may annotate fallbacks).
    EXPECT_EQ(schedule.policy.find(name), 0u) << schedule.policy;
  }
}

TEST(PolicyRegistry, BnbFeasibilityQueryOwnsTheBitmaskWidth) {
  EXPECT_TRUE(bnbExactSearchFeasible(14));
  EXPECT_FALSE(bnbExactSearchFeasible(15));
  // No graph wider than the mask is ever searched.
  EXPECT_FALSE(bnbExactSearchFeasible(
      static_cast<std::size_t>(kBnbMaxTasks) + 1));
}

TEST(PolicyCounters, AnnealingTalliesEvaluatedAndAcceptedMoves) {
  // One 1-thread chain of the default 4000 iterations: a move is counted
  // when it re-places a changed assignment (drawing the tile a task is
  // already on costs nothing and is not a move).
  support::MetricCounter& moves =
      support::MetricsRegistry::global().counter("sched.anneal.moves");
  support::MetricCounter& accepted =
      support::MetricsRegistry::global().counter("sched.anneal.accepted");
  Fixture fx;
  const Scheduler scheduler(fx.graph, fx.platform);
  SchedOptions options;
  options.policy = "annealed";
  const std::uint64_t movesBefore = moves.value();
  const std::uint64_t acceptedBefore = accepted.value();
  (void)scheduler.run(options);
  EXPECT_EQ(moves.value() - movesBefore, 2991u);
  EXPECT_EQ(accepted.value() - acceptedBefore, 1691u);
}

}  // namespace
}  // namespace argo::sched
