#include "util/series.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rlceff::util {

Series::Series(std::size_t n) : n_(n) {
  ensure(n > 0, "series order must be positive");
  ensure(n <= capacity, "series order exceeds Series::capacity");
}

Series::Series(std::initializer_list<double> coeffs, std::size_t n)
    : Series(std::span<const double>(coeffs.begin(), coeffs.size()), n) {}

Series::Series(std::span<const double> coeffs, std::size_t n) : Series(n) {
  const std::size_t m = std::min(n, coeffs.size());
  std::copy_n(coeffs.begin(), m, c_.begin());
}

Series Series::constant(double c, std::size_t n) {
  Series out(n);
  out.c_[0] = c;
  return out;
}

Series Series::operator-() const {
  Series out = *this;
  for (std::size_t k = 0; k < n_; ++k) out.c_[k] = -out.c_[k];
  return out;
}

Series& Series::operator+=(const Series& rhs) {
  ensure(size() == rhs.size(), "series order mismatch");
  for (std::size_t k = 0; k < n_; ++k) c_[k] += rhs.c_[k];
  return *this;
}

Series& Series::operator-=(const Series& rhs) {
  ensure(size() == rhs.size(), "series order mismatch");
  for (std::size_t k = 0; k < n_; ++k) c_[k] -= rhs.c_[k];
  return *this;
}

Series& Series::operator*=(double k) {
  for (std::size_t i = 0; i < n_; ++i) c_[i] *= k;
  return *this;
}

Series operator*(const Series& lhs, const Series& rhs) {
  ensure(lhs.size() == rhs.size(), "series order mismatch");
  const std::size_t n = lhs.size();
  Series out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (lhs.c_[i] == 0.0) continue;
    for (std::size_t j = 0; i + j < n; ++j) out.c_[i + j] += lhs.c_[i] * rhs.c_[j];
  }
  return out;
}

Series operator/(const Series& lhs, const Series& rhs) {
  ensure(lhs.size() == rhs.size(), "series order mismatch");
  ensure(rhs.c_[0] != 0.0, "series division by zero leading coefficient");
  const std::size_t n = lhs.size();
  Series out(n);
  // Long division: out[k] = (lhs[k] - sum_{j<k} out[j]*rhs[k-j]) / rhs[0].
  for (std::size_t k = 0; k < n; ++k) {
    double acc = lhs.c_[k];
    for (std::size_t j = 0; j < k; ++j) acc -= out.c_[j] * rhs.c_[k - j];
    out.c_[k] = acc / rhs.c_[0];
  }
  return out;
}

Series Series::compose(std::span<const double> outer, const Series& inner) {
  ensure(inner.c_[0] == 0.0, "composition requires inner series with zero constant term");
  const std::size_t n = inner.size();
  // Horner evaluation over series arithmetic.  Because inner has valuation
  // >= 1, only the first n outer coefficients can influence the truncation.
  Series acc(n);
  const std::size_t terms = std::min(outer.size(), n);
  for (std::size_t idx = terms; idx-- > 0;) {
    acc = acc * inner;
    acc.c_[0] += outer[idx];
  }
  return acc;
}

bool Series::almost_equal(const Series& rhs, double tol) const {
  if (size() != rhs.size()) return false;
  for (std::size_t k = 0; k < size(); ++k) {
    if (std::abs(c_[k] - rhs.c_[k]) > tol) return false;
  }
  return true;
}

}  // namespace rlceff::util
