// Unit tests for quadrature, the fixed-point iteration, and statistics
// helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.h"
#include "util/error.h"
#include "util/integrate.h"
#include "util/solve.h"
#include "util/stats.h"

namespace rlceff::util {
namespace {

using rlceff::testing::expect_rel_near;

TEST(Integrate, PolynomialIsNearExact) {
  const double got = integrate([](double x) { return 3.0 * x * x; }, 0.0, 2.0);
  EXPECT_NEAR(8.0, got, 1e-10);
}

TEST(Integrate, DampedExponential) {
  const double got = integrate([](double x) { return std::exp(-x); }, 0.0, 10.0);
  expect_rel_near(1.0 - std::exp(-10.0), got, 1e-9);
}

TEST(Integrate, OscillatoryDampedCosine) {
  // integral of e^{-t} cos(5t) from 0 to 4: (a cos.. closed form)
  const double a = 1.0;
  const double b = 5.0;
  auto antiderivative = [&](double t) {
    return std::exp(-a * t) * (-a * std::cos(b * t) + b * std::sin(b * t)) /
           (a * a + b * b);
  };
  const double expect = antiderivative(4.0) - antiderivative(0.0);
  const double got = integrate([&](double t) { return std::exp(-t) * std::cos(5.0 * t); },
                               0.0, 4.0);
  expect_rel_near(expect, got, 1e-8);
}

TEST(Integrate, EmptyIntervalIsZero) {
  EXPECT_DOUBLE_EQ(0.0, integrate([](double) { return 1.0; }, 1.0, 1.0));
}

TEST(Integrate, TinyTimescaleIntegrand) {
  // Picosecond-scale windows like the Ceff integrals.
  const double tau = 50e-12;
  const double got =
      integrate([&](double t) { return std::exp(-t / tau); }, 0.0, 200e-12);
  expect_rel_near(tau * (1.0 - std::exp(-4.0)), got, 1e-9);
}

TEST(FixedPoint, ConvergesOnContraction) {
  // x = cos(x) has the Dottie fixed point ~0.739085.
  const auto r = fixed_point([](double x) { return std::cos(x); }, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(0.7390851332151607, r.x, 1e-7);
}

TEST(FixedPoint, DampingStabilizesOscillation) {
  // g(x) = -1.5 x + 2.5 diverges undamped (slope magnitude > 1) but the
  // damped iteration converges to the fixed point x = 1.
  FixedPointOptions opt;
  opt.damping = 0.5;
  opt.max_iter = 200;
  const auto r = fixed_point([](double x) { return -1.5 * x + 2.5; }, 0.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(1.0, r.x, 1e-6);
}

TEST(FixedPoint, RespectsClamps) {
  FixedPointOptions opt;
  opt.lower = 0.5;
  opt.upper = 2.0;
  const auto r = fixed_point([](double) { return 10.0; }, 1.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(2.0, r.x);
}

TEST(FixedPoint, ReportsNonConvergence) {
  FixedPointOptions opt;
  opt.max_iter = 5;
  const auto r = fixed_point([](double x) { return x + 1.0; }, 0.0, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(5, r.iterations);
}

TEST(Stats, RelativeErrorAndAggregates) {
  EXPECT_NEAR(0.1, relative_error(1.1, 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(-0.5, relative_error(0.5, 1.0));
  EXPECT_THROW(relative_error(1.0, 0.0), Error);

  const std::vector<double> xs{0.02, -0.08, 0.04, -0.12};
  EXPECT_NEAR(-0.035, mean(xs), 1e-12);
  EXPECT_NEAR(0.065, mean_abs(xs), 1e-12);
  EXPECT_NEAR(0.12, max_abs(xs), 1e-12);
  EXPECT_NEAR(0.5, fraction_below(xs, 0.05), 1e-12);
  EXPECT_NEAR(0.75, fraction_below(xs, 0.1), 1e-12);
}

TEST(Stats, EmptySampleThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), Error);
  EXPECT_THROW(mean_abs(empty), Error);
  EXPECT_THROW(fraction_below(empty, 1.0), Error);
  // max_abs used to silently return 0.0 for an empty sample — the one
  // aggregate that produced a vacuous "max error 0" instead of failing like
  // its siblings.  Pinned after the property generator flagged the
  // inconsistency.
  EXPECT_THROW(max_abs(empty), Error);
}

TEST(Stats, DegenerateSingletonAndConstantSamples) {
  const std::vector<double> one{-0.25};
  EXPECT_DOUBLE_EQ(-0.25, mean(one));
  EXPECT_DOUBLE_EQ(0.25, mean_abs(one));
  EXPECT_DOUBLE_EQ(0.25, max_abs(one));
  EXPECT_DOUBLE_EQ(0.0, fraction_below(one, 0.25));  // strictly below
  EXPECT_DOUBLE_EQ(1.0, fraction_below(one, 0.2500001));

  const std::vector<double> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(0.0, mean(zeros));
  EXPECT_DOUBLE_EQ(0.0, max_abs(zeros));
  EXPECT_DOUBLE_EQ(1.0, fraction_below(zeros, 1e-300));
}

}  // namespace
}  // namespace rlceff::util
