// Small-degree polynomial utilities.
//
// Used for the pole analysis of the 5-moment rational admittance
// Y(s) = (a1 s + a2 s^2 + a3 s^3) / (1 + b1 s + b2 s^2): the poles are the
// roots of b2 s^2 + b1 s + 1, which may be real or a complex-conjugate pair.
#ifndef RLCEFF_UTIL_POLY_H
#define RLCEFF_UTIL_POLY_H

#include <array>
#include <complex>
#include <span>

namespace rlceff::util {

using Complex = std::complex<double>;

// Roots of a*x^2 + b*x + c = 0 with a != 0.  Returns both roots; for real
// discriminant >= 0 the imaginary parts are exactly zero.  Uses the
// numerically stable citardauq form for the smaller root.
std::array<Complex, 2> quadratic_roots(double a, double b, double c);

// Roots of a*x^3 + b*x^2 + c*x + d = 0 with a != 0 (Cardano + Newton polish).
std::array<Complex, 3> cubic_roots(double a, double b, double c, double d);

// Evaluate sum_k coeffs[k] * x^k.
Complex polyval(std::span<const double> coeffs, Complex x);

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_POLY_H
