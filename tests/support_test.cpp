// Unit tests for the support utilities.
#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/strings.h"

namespace argo::support {
namespace {

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

TEST(Strings, ParseNumberReadsWholeTokens) {
  EXPECT_EQ(parseNumber<int>("42"), 42);
  EXPECT_EQ(parseNumber<int>("-7"), -7);
  EXPECT_EQ(parseNumber<std::int64_t>("9007199254740993"),
            std::int64_t{9007199254740993});
  EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
            std::uint64_t{18446744073709551615u});
  EXPECT_EQ(parseNumber<double>("1.5e2"), 150.0);
  EXPECT_EQ(parseNumber<double>(".25"), 0.25);
}

TEST(Strings, ParseNumberRejectsEverythingElse) {
  for (const char* text : {"", " 1", "1 ", "+1", "2x", "1.9", "abc", "-"}) {
    EXPECT_EQ(parseNumber<int>(text), std::nullopt) << text;
  }
  EXPECT_EQ(parseNumber<int>("4294967297"), std::nullopt);
  EXPECT_EQ(parseNumber<std::uint64_t>("-1"), std::nullopt);
  for (const char* text : {"", "1e", "1.5e+", "1e999", "inf", "nan", "1.5x",
                           "0x10"}) {
    EXPECT_EQ(parseNumber<double>(text), std::nullopt) << text;
  }
}

}  // namespace
}  // namespace argo::support
