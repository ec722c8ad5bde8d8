// Truncated power-series arithmetic.
//
// A Series represents f(s) = c[0] + c[1]*s + ... + c[n-1]*s^(n-1) + O(s^n),
// i.e. a Taylor expansion truncated after a fixed number of terms.  This is
// the algebra used to propagate driving-point admittance moments through RLC
// ladders, trees and distributed lines: the k-th admittance moment is simply
// the k-th series coefficient of Y(s).
//
// All binary operations require equal truncation orders (moment computations
// pick one order up front).  Division requires an invertible leading
// coefficient.
//
// The coefficients live inline, up to Series::capacity terms, so series
// arithmetic never touches the heap: the moment cascades run once per net,
// a few hundred operations each.
#ifndef RLCEFF_UTIL_SERIES_H
#define RLCEFF_UTIL_SERIES_H

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>

namespace rlceff::util {

class Series {
public:
  // Largest truncation order a Series holds.  Every order in use is at most
  // moments::default_order (8); a larger n throws.
  static constexpr std::size_t capacity = 16;

  // Zero series with n coefficients (all O(s^n) terms dropped); 0 < n <=
  // capacity.
  explicit Series(std::size_t n);

  // Series from explicit coefficients, truncated/zero-padded to n terms.
  Series(std::initializer_list<double> coeffs, std::size_t n);
  Series(std::span<const double> coeffs, std::size_t n);

  // Constant c + O(s^n).
  static Series constant(double c, std::size_t n);

  std::size_t size() const { return n_; }
  double operator[](std::size_t k) const { return c_[k]; }
  double& operator[](std::size_t k) { return c_[k]; }
  std::span<const double> coeffs() const { return {c_.data(), n_}; }

  Series operator-() const;
  Series& operator+=(const Series& rhs);
  Series& operator-=(const Series& rhs);
  Series& operator*=(double k);

  friend Series operator+(Series lhs, const Series& rhs) { return lhs += rhs; }
  friend Series operator-(Series lhs, const Series& rhs) { return lhs -= rhs; }
  friend Series operator*(Series lhs, double k) { return lhs *= k; }
  friend Series operator*(double k, Series rhs) { return rhs *= k; }

  // Cauchy product, truncated.
  friend Series operator*(const Series& lhs, const Series& rhs);
  // Series division; rhs[0] must be nonzero.
  friend Series operator/(const Series& lhs, const Series& rhs);

  // Substitute: returns outer(inner(s)) where outer's "variable" is inner.
  // inner must have inner[0] == 0 (valuation >= 1) so the composition is a
  // well-defined truncated series.
  static Series compose(std::span<const double> outer, const Series& inner);

  // True when every coefficient differs from rhs by at most tol (absolute).
  bool almost_equal(const Series& rhs, double tol) const;

private:
  std::array<double, capacity> c_{};  // terms at and past n_ stay zero
  std::size_t n_ = 0;
};

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_SERIES_H
