#include "core/charge.h"

#include <cmath>

#include "util/error.h"

namespace rlceff::core {

using util::Complex;

ChargeModel::ChargeModel(const moments::RationalAdmittance& admittance)
    : y_(admittance) {
  n_poles_ = y_.pole_count();
  const auto ps = y_.poles();
  const double a1 = y_.a1();
  const double a2 = y_.a2();
  const double a3 = y_.a3();
  const double b1 = y_.b1();
  const double b2 = y_.b2();
  ramp_const_ = a2 - a1 * b1;

  for (int i = 0; i < n_poles_; ++i) {
    const Complex s = ps[static_cast<std::size_t>(i)];
    ensure(s.real() < 0.0, "ChargeModel: admittance has an unstable pole");
    const Complex n_at_s = a1 + s * (a2 + s * a3);
    const Complex d_prime = b1 + 2.0 * b2 * s;
    poles_[static_cast<std::size_t>(i)] = s;
    ramp_residues_[static_cast<std::size_t>(i)] = n_at_s / (s * s * d_prime);
    step_residues_[static_cast<std::size_t>(i)] = n_at_s / (s * d_prime);
  }
}

double ChargeModel::ramp_charge(double slope, double t) const {
  if (t <= 0.0) return 0.0;
  Complex acc = 0.0;
  for (int i = 0; i < n_poles_; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    acc += ramp_residues_[k] * std::exp(poles_[k] * t);
  }
  // With poles, sum_i R_i = -(a2 - a1 b1) so q(0+) = 0; the same constant
  // degenerates to a2 for pole-free fits (b1 = 0).
  return slope * (y_.a1() * t + ramp_const_ + acc.real());
}

double ChargeModel::step_charge(double v0, double t) const {
  if (t <= 0.0 || v0 == 0.0) return 0.0;
  Complex acc = 0.0;
  for (int i = 0; i < n_poles_; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    acc += step_residues_[k] * std::exp(poles_[k] * t);
  }
  return v0 * (y_.a1() + acc.real());
}

double ChargeModel::charge_at(double slope, double v0, double t) const {
  if (t <= 0.0) return 0.0;
  // The two sums of ramp_charge and step_charge, term for term in the same
  // order, fed from one exponential per pole.
  const bool step = v0 != 0.0;
  Complex ramp_acc = 0.0;
  Complex step_acc = 0.0;
  for (int i = 0; i < n_poles_; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    const Complex e = std::exp(poles_[k] * t);
    ramp_acc += ramp_residues_[k] * e;
    if (step) step_acc += step_residues_[k] * e;
  }
  const double q_ramp = slope * (y_.a1() * t + ramp_const_ + ramp_acc.real());
  const double q_step = step ? v0 * (y_.a1() + step_acc.real()) : 0.0;
  return q_ramp + q_step;
}

double ChargeModel::window_charge(double slope, double v0, double t_begin,
                                  double t_end) const {
  ensure(t_end >= t_begin, "ChargeModel: window must be ordered");
  const double q_end = charge_at(slope, v0, t_end);
  const double q_begin = charge_at(slope, v0, t_begin);
  return q_end - q_begin;
}

}  // namespace rlceff::core
