// Unit tests for the truncated power-series algebra.
#include "util/series.h"

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/error.h"

namespace rlceff::util {
namespace {

using rlceff::testing::expect_rel_near;
using rlceff::testing::uniform;

constexpr std::size_t n = 8;

Series random_series(double scale, bool invertible) {
  Series s(n);
  for (std::size_t k = 0; k < n; ++k) s[k] = rlceff::testing::uniform(-scale, scale);
  if (invertible && std::abs(s[0]) < 0.1) s[0] = 1.0 + s[0];
  return s;
}

TEST(Series, ConstantAndVariable) {
  const Series c = Series::constant(3.5, n);
  EXPECT_DOUBLE_EQ(3.5, c[0]);
  for (std::size_t k = 1; k < n; ++k) EXPECT_DOUBLE_EQ(0.0, c[k]);

  // The variable s, from its coefficients: zero-padded to n terms.
  const Series s({0.0, 1.0}, n);
  EXPECT_DOUBLE_EQ(0.0, s[0]);
  EXPECT_DOUBLE_EQ(1.0, s[1]);
  for (std::size_t k = 2; k < n; ++k) EXPECT_DOUBLE_EQ(0.0, s[k]);
}

TEST(Series, AdditionSubtraction) {
  const Series a({1.0, 2.0, 3.0}, n);
  const Series b({0.5, -1.0, 4.0}, n);
  const Series sum = a + b;
  EXPECT_DOUBLE_EQ(1.5, sum[0]);
  EXPECT_DOUBLE_EQ(1.0, sum[1]);
  EXPECT_DOUBLE_EQ(7.0, sum[2]);
  const Series diff = sum - b;
  EXPECT_TRUE(diff.almost_equal(a, 1e-15));
}

TEST(Series, MultiplicationMatchesConvolution) {
  const Series a({1.0, 1.0}, n);         // 1 + s
  const Series square = a * a;           // 1 + 2s + s^2
  EXPECT_DOUBLE_EQ(1.0, square[0]);
  EXPECT_DOUBLE_EQ(2.0, square[1]);
  EXPECT_DOUBLE_EQ(1.0, square[2]);
  EXPECT_DOUBLE_EQ(0.0, square[3]);
}

TEST(Series, GeometricSeriesDivision) {
  // 1 / (1 - s) = 1 + s + s^2 + ...
  const Series one = Series::constant(1.0, n);
  const Series den({1.0, -1.0}, n);
  const Series q = one / den;
  for (std::size_t k = 0; k < n; ++k) EXPECT_NEAR(1.0, q[k], 1e-14);
}

TEST(Series, DivisionByZeroLeadingCoefficientThrows) {
  const Series one = Series::constant(1.0, n);
  const Series den({0.0, 1.0}, n);
  EXPECT_THROW(one / den, Error);
}

TEST(Series, OrderMismatchThrows) {
  const Series a(4);
  const Series b(5);
  EXPECT_THROW(a + b, Error);
}

TEST(Series, OrderAboveCapacityThrows) {
  EXPECT_NO_THROW(Series(Series::capacity));
  EXPECT_THROW(Series(Series::capacity + 1), Error);
  const std::vector<double> coeffs(Series::capacity + 1, 1.0);
  EXPECT_THROW(Series(coeffs, Series::capacity + 1), Error);
  EXPECT_THROW(Series::constant(1.0, 0), Error);
}

TEST(Series, SqrtRoundTrip) {
  // sqrt(a) = sqrt(a0) * (1 + u)^(1/2) with u = a / a0 - 1, the binomial
  // series composed with u; squared, it gives a back.
  std::vector<double> half_power(n);
  half_power[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    const double j = static_cast<double>(k);
    half_power[k] = half_power[k - 1] * (0.5 - (j - 1.0)) / j;
  }
  for (int trial = 0; trial < 20; ++trial) {
    Series a = random_series(1.0, true);
    a[0] = 1.0 + std::abs(a[0]);
    Series u = a * (1.0 / a[0]);
    u[0] = 0.0;
    const Series r = std::sqrt(a[0]) * Series::compose(half_power, u);
    EXPECT_TRUE((r * r).almost_equal(a, 1e-10)) << "trial " << trial;
  }
}

TEST(Series, MulDivRoundTripProperty) {
  for (int trial = 0; trial < 50; ++trial) {
    const Series a = random_series(2.0, false);
    const Series b = random_series(2.0, true);
    const Series back = (a * b) / b;
    EXPECT_TRUE(back.almost_equal(a, 1e-9)) << "trial " << trial;
  }
}

TEST(Series, ShiftedMultipliesByPowerOfS) {
  // The product with s^2 shifts every coefficient up two places, and the
  // truncation drops the two that pass s^(n-1).
  const Series s2({0.0, 0.0, 1.0}, n);
  const Series a({1.0, 2.0, 3.0}, n);
  const Series shifted = a * s2;
  EXPECT_DOUBLE_EQ(0.0, shifted[0]);
  EXPECT_DOUBLE_EQ(0.0, shifted[1]);
  EXPECT_DOUBLE_EQ(1.0, shifted[2]);
  EXPECT_DOUBLE_EQ(2.0, shifted[3]);
  EXPECT_DOUBLE_EQ(3.0, shifted[4]);
  for (std::size_t k = 5; k < n; ++k) EXPECT_DOUBLE_EQ(0.0, shifted[k]);

  const Series full = random_series(1.0, false);
  const Series dropped = full * s2;
  for (std::size_t k = 0; k + 2 < n; ++k) EXPECT_EQ(full[k], dropped[k + 2]) << k;
}

TEST(Series, ComposeExpOfLinear) {
  // exp(u) with u = 2s: coefficients 2^k / k!.
  std::vector<double> exp_coeffs(n);
  double fact = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0) fact *= static_cast<double>(k);
    exp_coeffs[k] = 1.0 / fact;
  }
  const Series u({0.0, 2.0}, n);
  const Series e = Series::compose(exp_coeffs, u);
  double expect = 1.0;
  fact = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0) {
      fact *= static_cast<double>(k);
      expect = std::pow(2.0, static_cast<double>(k)) / fact;
    }
    EXPECT_NEAR(expect, e[k], 1e-12) << "k=" << k;
  }
}

TEST(Series, ComposeRequiresZeroConstantTerm) {
  const std::vector<double> outer{1.0, 1.0};
  const Series inner({1.0, 1.0}, n);
  EXPECT_THROW(Series::compose(outer, inner), Error);
}

TEST(Series, ComposeQuadraticInner) {
  // (1 + u)^2 with u = s + s^2: 1 + 2(s + s^2) + (s + s^2)^2.
  const std::vector<double> outer{1.0, 2.0, 1.0};
  const Series u({0.0, 1.0, 1.0}, n);
  const Series r = Series::compose(outer, u);
  EXPECT_NEAR(1.0, r[0], 1e-14);
  EXPECT_NEAR(2.0, r[1], 1e-14);
  EXPECT_NEAR(3.0, r[2], 1e-14);  // 2 + 1
  EXPECT_NEAR(2.0, r[3], 1e-14);  // cross term
  EXPECT_NEAR(1.0, r[4], 1e-14);
}

TEST(Series, NegationAndScalarOps) {
  const Series a({1.0, -2.0}, n);
  const Series neg = -a;
  EXPECT_DOUBLE_EQ(-1.0, neg[0]);
  EXPECT_DOUBLE_EQ(2.0, neg[1]);
  const Series scaled = 3.0 * a;
  EXPECT_DOUBLE_EQ(3.0, scaled[0]);
  EXPECT_DOUBLE_EQ(-6.0, scaled[1]);
}

}  // namespace
}  // namespace rlceff::util
