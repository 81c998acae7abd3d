// Unit tests for src/base: fitting, strings, rng, ids, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <concepts>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/mathfit.hpp"
#include "src/base/name_index.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"

namespace halotis {
namespace {

TEST(Check, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken contract");
    FAIL() << "require(false) must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("broken contract"), std::string::npos);
  }
}

TEST(Check, MessageBuilderRunsOnlyOnFailure) {
  int built = 0;
  const auto message = [&built] {
    ++built;
    return std::string("built ") + "lazily";
  };
  require(true, message);
  ensure(true, message);
  EXPECT_EQ(built, 0);
  try {
    require(false, message);
    FAIL() << "require(false) must throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(built, 1);
    EXPECT_EQ(std::string(e.what()).find("built lazily ["), 0u) << e.what();
  }
}

/// Whether `require(bool, M)` compiles for a message argument of type M.
template <class M>
concept AcceptedMessage = requires(M&& message) { require(true, std::forward<M>(message)); };

TEST(Check, EagerlyBuiltMessagesDoNotCompile) {
  static_assert(AcceptedMessage<const char*>);
  static_assert(AcceptedMessage<std::string_view>);
  static_assert(AcceptedMessage<const std::string&>);
  static_assert(AcceptedMessage<std::string&>);
  static_assert(AcceptedMessage<std::string (*)()>);
  // `"..." + name`, std::to_string(...), std::string(...): a fresh string
  // would be built on every passing check.
  static_assert(!AcceptedMessage<std::string>);
  static_assert(!AcceptedMessage<std::string&&>);
}

TEST(Ids, DefaultIsInvalid) {
  GateId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(GateId{3}.valid());
  EXPECT_EQ(GateId{3}, GateId{3});
  EXPECT_NE(GateId{3}, GateId{4});
  EXPECT_LT(GateId{3}, GateId{4});
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<GateId, SignalId>);
  static_assert(!std::is_same_v<TransitionId, EventId>);
}

TEST(MathFit, LineThroughExactPoints) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(MathFit, LineWithNoise) {
  SplitMix64 rng(42);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(-0.5 * x + 4.0 + 0.01 * (rng.next_double() - 0.5));
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, -0.5, 1e-3);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-2);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(MathFit, LineRejectsDegenerateInput) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)fit_line(one, one), ContractViolation);
  const std::vector<double> same_x{2.0, 2.0};
  const std::vector<double> ys{1.0, 3.0};
  EXPECT_THROW((void)fit_line(same_x, ys), ContractViolation);
}

TEST(MathFit, LeastSquaresRecoversPlane) {
  // y = 2 + 3*a - 1.5*b over a small grid.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      rows.push_back({1.0, static_cast<double>(a), static_cast<double>(b)});
      y.push_back(2.0 + 3.0 * a - 1.5 * b);
    }
  }
  const std::vector<double> coeffs = fit_least_squares(rows, y);
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 2.0, 1e-9);
  EXPECT_NEAR(coeffs[1], 3.0, 1e-9);
  EXPECT_NEAR(coeffs[2], -1.5, 1e-9);
}

TEST(MathFit, SolveLinearSystemSingularThrows) {
  EXPECT_THROW((void)solve_linear_system({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}, 2),
               ContractViolation);
}

TEST(MathFit, MedianOddEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(MathFit, MeanAndStddev) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_DOUBLE_EQ(stddev(values), 2.0);
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  const auto pieces = split("a, b ,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto pieces = split_whitespace("  one\t two  \n three ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "one");
  EXPECT_EQ(pieces[2], "three");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("NaNd2"), "nand2");
  EXPECT_EQ(to_upper("NaNd2"), "NAND2");
}

TEST(Strings, ParseNumbers) {
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 ", "test"), 2.5);
  EXPECT_EQ(parse_unsigned("42", "test"), 42ul);
  EXPECT_THROW((void)parse_double("abc", "test"), ContractViolation);
  EXPECT_THROW((void)parse_unsigned("-1", "test"), ContractViolation);
  EXPECT_THROW((void)parse_double("1.5x", "test"), ContractViolation);
}

TEST(Strings, OnlyFiniteNumbersParse) {
  EXPECT_DOUBLE_EQ(*parse_finite("-1.25e-3"), -1.25e-3);
  EXPECT_DOUBLE_EQ(*parse_finite("1e308"), 1e308);
  for (const char* bad : {"nan", "-nan", "NaN", "inf", "-inf", "infinity", "INF", "1e999",
                          "-1e999", "0x1p1", "+1", "", " 1", "1 "}) {
    EXPECT_FALSE(parse_finite(bad).has_value()) << "'" << bad << "'";
  }
  try {
    (void)parse_double("nan", "stimulus line", 7);
    FAIL() << "nan accepted";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(std::string(e.what()).find("failed to parse number 'nan' in stimulus line 7 ["),
              0u)
        << e.what();
  }
}

TEST(NameIndex, InsertFindAndGrow) {
  std::vector<std::string> names;
  NameIndex index;
  const auto name_of = [&names](std::uint32_t id) -> std::string_view { return names[id]; };
  EXPECT_EQ(index.find("absent", name_of), NameIndex::kNone);
  for (std::uint32_t i = 0; i < 5000; ++i) {  // grows from the first slot table many times
    names.push_back("n" + std::to_string(i));
    EXPECT_EQ(index.insert(names.back(), i, name_of), i);
  }
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(index.find("n" + std::to_string(i), name_of), i);
    EXPECT_EQ(index.insert("n" + std::to_string(i), 9999, name_of), i);  // already present
  }
  EXPECT_EQ(index.find("n5000", name_of), NameIndex::kNone);
  EXPECT_EQ(index.find("", name_of), NameIndex::kNone);
}

TEST(Strings, NextLineMatchesGetline) {
  for (const std::string text : {"", "\n", "a", "a\n", "a\r\nb", "\n\nlast", "x\ny\n"}) {
    std::vector<std::string> expected;
    std::istringstream stream(text);
    for (std::string line; std::getline(stream, line);) expected.push_back(line);
    std::vector<std::string> got;
    for (std::size_t pos = 0; pos < text.size();) got.emplace_back(next_line(text, pos));
    EXPECT_EQ(got, expected) << "'" << text << "'";
  }
}

TEST(Rng, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  SplitMix64 rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double r = rng.next_double_in(-2.0, 3.0);
    EXPECT_GE(r, -2.0);
    EXPECT_LT(r, 3.0);
  }
}

TEST(Rng, RoughlyUniform) {
  SplitMix64 rng(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 100);
  }
}

}  // namespace
}  // namespace halotis
