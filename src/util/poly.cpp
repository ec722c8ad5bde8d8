#include "util/poly.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rlceff::util {

std::array<Complex, 2> quadratic_roots(double a, double b, double c) {
  ensure(a != 0.0, "quadratic_roots: leading coefficient is zero");
  const double disc = b * b - 4.0 * a * c;
  if (disc >= 0.0) {
    // q = -(b + sign(b)*sqrt(disc))/2 avoids cancellation in the smaller root.
    const double sq = std::sqrt(disc);
    const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
    double r1 = 0.0;
    double r2 = 0.0;
    if (q != 0.0) {
      r1 = q / a;
      r2 = c / q;
    } else {
      // b == 0 and c == 0 (disc >= 0 forces c <= 0 when q == 0).
      r1 = std::sqrt(-c / a);
      r2 = -r1;
    }
    return {Complex(r1, 0.0), Complex(r2, 0.0)};
  }
  const double re = -b / (2.0 * a);
  const double im = std::sqrt(-disc) / (2.0 * a);
  return {Complex(re, im), Complex(re, -im)};
}

std::array<Complex, 3> cubic_roots(double a, double b, double c, double d) {
  ensure(a != 0.0, "cubic_roots: leading coefficient is zero");
  // Depressed cubic t^3 + p t + q with x = t - b/(3a).
  const double b1 = b / a;
  const double c1 = c / a;
  const double d1 = d / a;
  const double p = c1 - b1 * b1 / 3.0;
  const double q = 2.0 * b1 * b1 * b1 / 27.0 - b1 * c1 / 3.0 + d1;
  const double shift = -b1 / 3.0;
  const double disc = q * q / 4.0 + p * p * p / 27.0;

  std::array<Complex, 3> roots;
  if (disc > 0.0) {
    const double sq = std::sqrt(disc);
    const double u = std::cbrt(-q / 2.0 + sq);
    const double v = std::cbrt(-q / 2.0 - sq);
    const double t0 = u + v;
    roots[0] = Complex(t0 + shift, 0.0);
    const double re = -t0 / 2.0;
    const double im = std::sqrt(3.0) / 2.0 * (u - v);
    roots[1] = Complex(re + shift, im);
    roots[2] = Complex(re + shift, -im);
  } else {
    // Three real roots (trigonometric form).
    const double r = std::sqrt(-p * p * p / 27.0);
    const double phi = std::acos(std::clamp(-q / (2.0 * r), -1.0, 1.0));
    const double mag = 2.0 * std::cbrt(r);
    for (int k = 0; k < 3; ++k) {
      roots[static_cast<std::size_t>(k)] =
          Complex(mag * std::cos((phi + 2.0 * M_PI * k) / 3.0) + shift, 0.0);
    }
  }

  // One Newton polish step per root on the original polynomial.
  const std::array<double, 4> coeffs{d, c, b, a};
  for (auto& x : roots) {
    const Complex f = polyval(coeffs, x);
    const Complex df = 3.0 * a * x * x + 2.0 * b * x + c;
    if (std::abs(df) > 0.0) x -= f / df;
  }
  return roots;
}

Complex polyval(std::span<const double> coeffs, Complex x) {
  Complex acc = 0.0;
  for (std::size_t k = coeffs.size(); k-- > 0;) acc = acc * x + coeffs[k];
  return acc;
}

}  // namespace rlceff::util
