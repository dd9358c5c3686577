// Unit tests for the support utilities.
#include <gtest/gtest.h>

#include "support/diagnostics.h"
#include "support/interval.h"
#include "support/rng.h"
#include "support/strings.h"

namespace argo::support {
namespace {

TEST(Diagnostics, StartsEmpty) {
  DiagnosticEngine diag;
  EXPECT_FALSE(diag.hasErrors());
  EXPECT_EQ(diag.errorCount(), 0);
  EXPECT_TRUE(diag.all().empty());
}

TEST(Diagnostics, CountsOnlyErrors) {
  DiagnosticEngine diag;
  diag.note("fyi");
  diag.warning("careful");
  EXPECT_FALSE(diag.hasErrors());
  diag.error("broken", "stage x");
  EXPECT_TRUE(diag.hasErrors());
  EXPECT_EQ(diag.errorCount(), 1);
  EXPECT_EQ(diag.all().size(), 3u);
}

TEST(Diagnostics, RendersContext) {
  DiagnosticEngine diag;
  diag.error("bad wire", "diagram 'egpws'");
  const std::string text = diag.str();
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("diagram 'egpws'"), std::string::npos);
  EXPECT_NE(text.find("bad wire"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine diag;
  diag.error("x");
  diag.clear();
  EXPECT_FALSE(diag.hasErrors());
  EXPECT_TRUE(diag.all().empty());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Interval, EmptyAndLength) {
  EXPECT_TRUE((Interval{5, 5}).empty());
  EXPECT_TRUE((Interval{6, 5}).empty());
  EXPECT_EQ((Interval{2, 7}).length(), 5);
  EXPECT_EQ((Interval{7, 2}).length(), 0);
}

TEST(Interval, Contains) {
  const Interval iv{10, 20};
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_FALSE(iv.contains(9));
}

TEST(Interval, OverlapsIsSymmetricAndHalfOpen) {
  const Interval a{0, 10};
  const Interval b{10, 20};
  const Interval c{5, 15};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(b.overlaps(a));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
}

TEST(Interval, Intersect) {
  const Interval a{0, 10};
  const Interval b{5, 15};
  EXPECT_EQ(a.intersect(b), (Interval{5, 10}));
  EXPECT_TRUE(a.intersect(Interval{20, 30}).empty());
}

TEST(IntervalSet, InsertMergesOverlapping) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({20, 30});
  set.insert({5, 25});  // bridges both
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 30}));
}

TEST(IntervalSet, InsertMergesTouching) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({10, 20});
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_EQ(set.coveredLength(), 20);
}

TEST(IntervalSet, DisjointStaysSorted) {
  IntervalSet set;
  set.insert({30, 40});
  set.insert({0, 5});
  set.insert({10, 20});
  ASSERT_EQ(set.intervals().size(), 3u);
  EXPECT_EQ(set.intervals()[0].lo, 0);
  EXPECT_EQ(set.intervals()[1].lo, 10);
  EXPECT_EQ(set.intervals()[2].lo, 30);
  EXPECT_EQ(set.coveredLength(), 25);
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet set;
  set.insert({5, 5});
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, OverlapQueries) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({20, 30});
  EXPECT_TRUE(set.overlaps({5, 6}));
  EXPECT_FALSE(set.overlaps({10, 20}));
  EXPECT_EQ(set.overlapLength({5, 25}), 10);
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("platform x", "platform"));
  EXPECT_FALSE(startsWith("plat", "platform"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Strings, FormatCycles) {
  EXPECT_EQ(formatCycles(0), "0");
  EXPECT_EQ(formatCycles(999), "999");
  EXPECT_EQ(formatCycles(1234), "1_234");
  EXPECT_EQ(formatCycles(1234567), "1_234_567");
  EXPECT_EQ(formatCycles(-1234), "-1_234");
}

}  // namespace
}  // namespace argo::support
