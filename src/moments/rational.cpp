#include "moments/rational.h"

#include <cmath>

#include "util/error.h"

namespace rlceff::moments {

namespace {

// Relative threshold below which the Pade normal system is treated as
// singular and the fit degrades gracefully to fewer poles.
constexpr double degeneracy_rel = 1e-12;

}  // namespace

RationalAdmittance::RationalAdmittance(const util::Series& series) {
  ensure(series.size() >= 6, "RationalAdmittance: need moments m1..m5 (order >= 6)");
  const double m1 = series[1];
  const double m2 = series[2];
  const double m3 = series[3];
  const double m4 = series[4];
  const double m5 = series[5];
  ensure(std::abs(series[0]) <= 1e-9 * std::max(1.0, std::abs(m1)),
         "RationalAdmittance: load must have no DC path (m0 == 0)");
  ensure(m1 > 0.0, "RationalAdmittance: first moment (total capacitance) must be positive");

  // Pade conditions: m4 + b1 m3 + b2 m2 = 0 and m5 + b1 m4 + b2 m3 = 0.
  const double det = m3 * m3 - m2 * m4;
  const double scale = std::abs(m3 * m3) + std::abs(m2 * m4);
  if (std::abs(det) > degeneracy_rel * std::max(scale, 1e-300)) {
    b1_ = (m2 * m5 - m3 * m4) / det;
    b2_ = (m4 * m4 - m3 * m5) / det;
  } else if (m2 != 0.0 && m3 / m2 < 0.0) {
    // The two-pole system is singular (e.g. an exact series-RC load, whose
    // moments are a geometric sequence).  Fit the one-pole Pade instead:
    // m3 + b1 m2 = 0 with a stable pole at -1/b1.
    b1_ = -m3 / m2;
    b2_ = 0.0;
  } else {
    // Pure capacitor (or no usable higher moments): polynomial fit.
    b1_ = 0.0;
    b2_ = 0.0;
  }
  a1_ = m1;
  a2_ = m2 + b1_ * m1;
  a3_ = m3 + b1_ * m2 + b2_ * m1;
}

RationalAdmittance::RationalAdmittance(double a1, double a2, double a3, double b1,
                                       double b2)
    : a1_(a1), a2_(a2), a3_(a3), b1_(b1), b2_(b2) {}

int RationalAdmittance::pole_count() const {
  if (b2_ != 0.0) return 2;
  return b1_ != 0.0 ? 1 : 0;
}

std::array<util::Complex, 2> RationalAdmittance::poles() const {
  if (b2_ != 0.0) return util::quadratic_roots(b2_, b1_, 1.0);
  if (b1_ != 0.0) return {util::Complex(-1.0 / b1_, 0.0), util::Complex(0.0, 0.0)};
  return {util::Complex(0.0, 0.0), util::Complex(0.0, 0.0)};
}

bool RationalAdmittance::complex_poles() const {
  return b2_ != 0.0 && b1_ * b1_ < 4.0 * b2_;
}

util::Series RationalAdmittance::to_series(std::size_t order) const {
  const util::Series num({0.0, a1_, a2_, a3_}, order);
  const util::Series den({1.0, b1_, b2_}, order);
  return num / den;
}

}  // namespace rlceff::moments
