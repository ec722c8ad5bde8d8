// Unit tests for polynomial roots and fitting.
#include "util/poly.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.h"
#include "util/error.h"

namespace rlceff::util {
namespace {

using rlceff::testing::expect_rel_near;
using rlceff::testing::uniform;

TEST(QuadraticRoots, DistinctReal) {
  // (x - 2)(x + 5) = x^2 + 3x - 10.
  const auto r = quadratic_roots(1.0, 3.0, -10.0);
  std::array<double, 2> roots{r[0].real(), r[1].real()};
  std::sort(roots.begin(), roots.end());
  EXPECT_NEAR(-5.0, roots[0], 1e-12);
  EXPECT_NEAR(2.0, roots[1], 1e-12);
  EXPECT_DOUBLE_EQ(0.0, r[0].imag());
  EXPECT_DOUBLE_EQ(0.0, r[1].imag());
}

TEST(QuadraticRoots, ComplexPair) {
  // x^2 + 2x + 5: roots -1 +/- 2i.
  const auto r = quadratic_roots(1.0, 2.0, 5.0);
  EXPECT_NEAR(-1.0, r[0].real(), 1e-12);
  EXPECT_NEAR(2.0, std::abs(r[0].imag()), 1e-12);
  EXPECT_NEAR(r[0].real(), r[1].real(), 1e-12);
  EXPECT_NEAR(r[0].imag(), -r[1].imag(), 1e-12);
}

TEST(QuadraticRoots, CancellationResistant) {
  // x^2 - 1e8 x + 1: naive formula destroys the small root.
  const auto r = quadratic_roots(1.0, -1e8, 1.0);
  std::array<double, 2> roots{r[0].real(), r[1].real()};
  std::sort(roots.begin(), roots.end());
  expect_rel_near(1e-8, roots[0], 1e-10);
  expect_rel_near(1e8, roots[1], 1e-12);
}

TEST(QuadraticRoots, ZeroLeadingCoefficientThrows) {
  EXPECT_THROW(quadratic_roots(0.0, 1.0, 1.0), Error);
}

TEST(CubicRoots, ThreeReal) {
  // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
  const auto r = cubic_roots(1.0, -6.0, 11.0, -6.0);
  std::array<double, 3> roots{r[0].real(), r[1].real(), r[2].real()};
  std::sort(roots.begin(), roots.end());
  EXPECT_NEAR(1.0, roots[0], 1e-9);
  EXPECT_NEAR(2.0, roots[1], 1e-9);
  EXPECT_NEAR(3.0, roots[2], 1e-9);
}

TEST(CubicRoots, OneRealOneComplexPair) {
  // (x + 1)(x^2 + 1): roots -1, +/- i.
  const auto r = cubic_roots(1.0, 1.0, 1.0, 1.0);
  int real_count = 0;
  for (const auto& root : r) {
    const Complex val = polyval(std::array<double, 4>{1.0, 1.0, 1.0, 1.0}, root);
    EXPECT_LT(std::abs(val), 1e-9);
    if (std::abs(root.imag()) < 1e-9) ++real_count;
  }
  EXPECT_EQ(1, real_count);
}

TEST(CubicRoots, RandomPolynomialsSatisfyEquation) {
  for (int trial = 0; trial < 50; ++trial) {
    const double a = uniform(0.5, 2.0);
    const double b = uniform(-3.0, 3.0);
    const double c = uniform(-3.0, 3.0);
    const double d = uniform(-3.0, 3.0);
    const auto roots = cubic_roots(a, b, c, d);
    for (const auto& x : roots) {
      const Complex val = polyval(std::array<double, 4>{d, c, b, a}, x);
      EXPECT_LT(std::abs(val), 1e-7) << "trial " << trial;
    }
  }
}

TEST(Polyval, HornerMatchesDirect) {
  const std::array<double, 4> c{1.0, -2.0, 0.5, 3.0};
  const double x = 1.7;
  const double direct = 1.0 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
  const Complex horner = polyval(c, Complex(x, 0.0));
  EXPECT_NEAR(direct, horner.real(), 1e-12);
  EXPECT_EQ(0.0, horner.imag());
}

}  // namespace
}  // namespace rlceff::util
