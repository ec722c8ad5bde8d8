// Charge transfer into a rational driving-point admittance.
//
// The effective-capacitance conditions of Sec. 4 all have the form
//   Ceff * (swing) = integral of i(t) over a transition window,
// where i(t) is the current delivered into Y(s) by an extended ramp
// v(t) = v0 + slope * t.  With Y(s) = s N(s) / D(s), N = a1 + a2 s + a3 s^2,
// D = 1 + b1 s + b2 s^2, the charge q(t) = L^-1[ V(s) Y(s) / s ] has a closed
// form by partial fractions over the poles of D:
//
//   ramp:  q_r(t) = slope * ( a1 t + (a2 - a1 b1) + sum_i R_i e^{s_i t} ),
//          R_i = N(s_i) / (s_i^2 D'(s_i))
//   step:  q_s(t) = v0 * ( a1 + sum_i r_i e^{s_i t} ),
//          r_i = N(s_i) / (s_i D'(s_i))
//
// One complex-arithmetic implementation covers the paper's real-pole (Eq 4/6)
// and complex-pole (Eq 5/7) branches: conjugate pole pairs produce conjugate
// residues, so the sum is real.  Degenerate fits with one or zero poles
// (pure-C or RC-dominated loads) fall out of the same formulas.
#ifndef RLCEFF_CORE_CHARGE_H
#define RLCEFF_CORE_CHARGE_H

#include <array>

#include "moments/rational.h"
#include "util/poly.h"

namespace rlceff::core {

class ChargeModel {
public:
  explicit ChargeModel(const moments::RationalAdmittance& admittance);

  const moments::RationalAdmittance& admittance() const { return y_; }

  // Charge delivered over (0, t] by v(t) = slope * t applied at t = 0.
  double ramp_charge(double slope, double t) const;

  // Charge delivered over (0+, t] by a step to v0 at t = 0.  The impulsive
  // charge a3/b2 * v0 at t = 0 itself is included (it is the limit of the
  // fast charging path); windows starting at t > 0 difference it away.
  double step_charge(double v0, double t) const;

  // Charge delivered over (t_begin, t_end] by the extended ramp
  // v(t) = v0 + slope * t.  Bitwise equal to the difference of
  // ramp_charge + step_charge at the two ends, with each pole's exponential
  // evaluated once per end for both sums.
  double window_charge(double slope, double v0, double t_begin, double t_end) const;

private:
  // ramp_charge(slope, t) + step_charge(v0, t), sharing e^{s_i t}.
  double charge_at(double slope, double v0, double t) const;

  moments::RationalAdmittance y_;
  int n_poles_ = 0;
  std::array<util::Complex, 2> poles_{};
  std::array<util::Complex, 2> ramp_residues_{};
  std::array<util::Complex, 2> step_residues_{};
  double ramp_const_ = 0.0;  // a2 - a1 b1
};

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_CHARGE_H
