// Five-moment rational driving-point admittance (the paper's Eq 3):
//
//   Y(s) = (a1 s + a2 s^2 + a3 s^3) / (1 + b1 s + b2 s^2)
//
// The coefficients are the [3/2] Pade approximant of the admittance series:
// matching the first five moments m1..m5 gives two linear equations for
// (b1, b2) and explicit expressions for (a1, a2, a3).  a1 always equals the
// total load capacitance.  The poles (roots of b2 s^2 + b1 s + 1) may be real
// or a complex-conjugate pair — the paper's Eq 4/5 vs Eq 6/7 distinction.
#ifndef RLCEFF_MOMENTS_RATIONAL_H
#define RLCEFF_MOMENTS_RATIONAL_H

#include <array>

#include "util/poly.h"
#include "util/series.h"

namespace rlceff::moments {

class RationalAdmittance {
public:
  // Fits to the first five moments of the admittance series (series[0] must
  // be ~0: the load has no DC path).  Degenerate loads (e.g. a pure
  // capacitor, where the Pade system is singular) reduce to lower order
  // automatically: b1 = b2 = 0 and Y(s) = a1 s (+ a2 s^2 + a3 s^3).
  explicit RationalAdmittance(const util::Series& series);

  // Direct construction from coefficients (used by tests).
  RationalAdmittance(double a1, double a2, double a3, double b1, double b2);

  double a1() const { return a1_; }
  double a2() const { return a2_; }
  double a3() const { return a3_; }
  double b1() const { return b1_; }
  double b2() const { return b2_; }

  // Total capacitance of the load (first admittance moment).
  double total_capacitance() const { return a1_; }

  // Number of finite poles (0, 1, or 2).
  int pole_count() const;
  // The finite poles; valid entries are [0, pole_count()).  A physical load
  // has poles in the open left half plane.
  std::array<util::Complex, 2> poles() const;
  // True when pole_count() == 2 and the pair is complex (paper Eq 5/7 case).
  bool complex_poles() const;

  // Taylor re-expansion, for verifying the moment match.
  util::Series to_series(std::size_t order) const;

private:
  double a1_ = 0.0;
  double a2_ = 0.0;
  double a3_ = 0.0;
  double b1_ = 0.0;
  double b2_ = 0.0;
};

}  // namespace rlceff::moments

#endif  // RLCEFF_MOMENTS_RATIONAL_H
