// Unit tests for quadrature, the fixed-point iteration, statistics helpers,
// and the execution budget's wall limit.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "test_helpers.h"
#include "util/budget.h"
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

TEST(FixedPoint, ConvergesWherePlainIterationDiverges) {
  // g(x) = -1.5 x + 2.5 has slope magnitude > 1, so x <- g(x) diverges from
  // x = 0.  h(x) = g(x) - x is linear: one plain step brackets the root and
  // the first secant step lands on x = 1.
  const auto r = fixed_point([](double x) { return -1.5 * x + 2.5; }, 0.0);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
  EXPECT_NEAR(1.0, r.x, 1e-9);
}

TEST(FixedPoint, CreepingContractionConvergesInFourPasses) {
  // g'(x*) = 0.89, as on the fleet nets where x <- g(x) ran out of its
  // 60-pass cap: from here it needs about 100 passes to reach 1e-6.  In
  // Ceff units (Ctotal = 1) over the Ceff clamp range.
  FixedPointOptions opt;
  opt.rel_tol = 1e-6;
  opt.max_iter = 60;
  opt.lower = 1e-4;
  opt.upper = 20.0;
  const double root = 0.62;
  const auto g = [&](double x) { return root + 0.89 * (x - root); };
  const auto r = fixed_point(g, 1.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 4);
  // The stop rule bounds |g(x) - x| = 0.11 |x - x*|.
  EXPECT_NEAR(root, r.x, 1e-6 * root / 0.11);
}

TEST(FixedPoint, NonMonotoneMapConvergesInsideTheBracket) {
  // Shaped like the Ceff2 map of fleet net 15: from x = 1 the residual
  // h(x) = g(x) - x first rises and then falls through the root at x = 4,
  // and g is non-monotone beyond 5.8.  The secant through the first two
  // iterates points below the lower clamp, where a secant kept only inside
  // the clamp range stalls.
  FixedPointOptions opt;
  opt.rel_tol = 1e-6;
  opt.max_iter = 60;
  opt.lower = 1e-4;
  opt.upper = 20.0;
  const auto g = [](double x) { return 0.2 + 1.45 * x - 0.125 * x * x; };
  const auto r = fixed_point(g, 1.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(4.0, r.x, 1e-5);
  EXPECT_LE(r.iterations, 20);
}

TEST(FixedPoint, IterationCapsOfZeroAndOne) {
  // max_iter = 0 evaluates nothing and returns the clamped start,
  // unconverged; max_iter = 1 evaluates once and returns that point.
  FixedPointOptions opt;
  opt.upper = 2.0;
  int calls = 0;
  const auto g = [&calls](double x) {
    ++calls;
    return std::cos(x);
  };
  opt.max_iter = 0;
  const auto none = fixed_point(g, 5.0, opt);
  EXPECT_EQ(0, calls);
  EXPECT_EQ(0, none.iterations);
  EXPECT_FALSE(none.converged);
  EXPECT_EQ(2.0, none.x);

  opt.max_iter = 1;
  const auto one = fixed_point(g, 1.0, opt);
  EXPECT_EQ(1, calls);
  EXPECT_EQ(1, one.iterations);
  EXPECT_FALSE(one.converged);
  EXPECT_EQ(1.0, one.x);
  const auto fixed = fixed_point([](double) { return 1.5; }, 1.5, opt);
  EXPECT_EQ(1, fixed.iterations);
  EXPECT_TRUE(fixed.converged);
  EXPECT_EQ(1.5, fixed.x);
}

TEST(FixedPoint, ChecksTheBudgetOncePerEvaluation) {
  // A token cancelled during evaluation k stops the solver at the
  // checkpoint before evaluation k + 1 (k = 0: before the first), and one
  // cancelled during the last evaluation does not stop it: there is one
  // checkpoint per evaluation, so as many as `iterations`.
  const auto g = [](double x) { return std::cos(x); };
  const FixedPointResult free_run = fixed_point(g, 1.0);
  ASSERT_TRUE(free_run.converged);
  for (int k = 0; k <= free_run.iterations; ++k) {
    ExecBudget spec;
    spec.cancel = CancelToken::source();
    if (k == 0) spec.cancel.request_cancel();
    ExecTracker tracker(spec);
    FixedPointOptions opt;
    opt.budget = &tracker;
    int calls = 0;
    const auto counted = [&](double x) {
      if (++calls == k) spec.cancel.request_cancel();
      return g(x);
    };
    if (k < free_run.iterations) {
      EXPECT_THROW(fixed_point(counted, 1.0, opt), CancelledError) << k;
    } else {
      const FixedPointResult r = fixed_point(counted, 1.0, opt);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(free_run.iterations, r.iterations);
    }
    EXPECT_EQ(k, calls);
  }
}

// A wall limit the steady clock cannot represent from now (+inf, or past
// about 292 years) arms no deadline: the tracker stays limited, and no
// checkpoint ever reports the deadline exceeded.  A short finite limit
// still fires.
TEST(ExecTracker, WallLimitPastTheClockRangeArmsNoDeadline) {
  for (const double limit_s : {std::numeric_limits<double>::infinity(), 1e300}) {
    ExecBudget spec;
    spec.wall_limit_s = limit_s;
    ExecTracker tracker(spec);
    EXPECT_TRUE(tracker.limited()) << limit_s;
    EXPECT_NO_THROW(tracker.check("test")) << limit_s;
    EXPECT_NO_THROW(tracker.charge_transient_steps(1000, "test")) << limit_s;
  }
  ExecBudget spec;
  spec.wall_limit_s = 1e-9;
  ExecTracker tracker(spec);
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < std::chrono::microseconds(10)) {
  }
  EXPECT_THROW(tracker.check("test"), DeadlineError);
}

TEST(FixedPoint, RespectsClamps) {
  FixedPointOptions opt;
  opt.lower = 0.5;
  opt.upper = 2.0;
  const auto r = fixed_point([](double) { return 10.0; }, 1.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(2.0, r.x);

  // Ceff3's case: g stays above the upper clamp, so P(x) = upper and the
  // fixed point is the bound itself.  From the bound it converges in one
  // pass; from inside, P(x) lands on the bound (an end not yet evaluated)
  // and the next pass converges there.  The same holds at the lower clamp.
  opt.rel_tol = 1e-6;
  opt.lower = 1e-4;
  opt.upper = 1.0;
  const auto above = [](double x) { return 1.5 + 0.5 * x; };
  const auto at_start = fixed_point(above, 1.0, opt);
  EXPECT_TRUE(at_start.converged);
  EXPECT_EQ(1, at_start.iterations);
  EXPECT_EQ(1.0, at_start.x);
  const auto from_inside = fixed_point(above, 0.3, opt);
  EXPECT_TRUE(from_inside.converged);
  EXPECT_EQ(2, from_inside.iterations);
  EXPECT_EQ(1.0, from_inside.x);
  const auto at_lower = fixed_point([](double) { return -1.0; }, 1.0, opt);
  EXPECT_TRUE(at_lower.converged);
  EXPECT_EQ(2, at_lower.iterations);
  EXPECT_EQ(1e-4, at_lower.x);
}

TEST(FixedPoint, ReportsNonConvergence) {
  FixedPointOptions opt;
  opt.max_iter = 5;
  const auto r = fixed_point([](double x) { return x + 1.0; }, 0.0, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(5, r.iterations);
}

TEST(FixedPoint, AcceptsStdFunction) {
  // The loop is a template over its callable; a type-erased one still works
  // and walks the same iterates as the lambda it wraps.
  const std::function<double(double)> g = [](double x) { return std::cos(x); };
  const auto erased = fixed_point(g, 1.0);
  const auto direct = fixed_point([](double x) { return std::cos(x); }, 1.0);
  EXPECT_TRUE(erased.converged);
  EXPECT_EQ(direct.iterations, erased.iterations);
  EXPECT_EQ(direct.x, erased.x);
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
