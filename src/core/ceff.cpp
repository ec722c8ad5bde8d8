#include "core/ceff.h"

#include <cmath>

#include "util/error.h"
#include "util/integrate.h"
#include "util/solve.h"

namespace rlceff::core {

namespace {

// Validity checks shared by the window-based definitions.
void check_window(double f, double tr1) {
  ensure(f > 0.0 && f <= 1.0, "ceff: breakpoint fraction must be in (0, 1]");
  ensure(tr1 > 0.0, "ceff: ramp time must be positive");
}

// Time-domain current of the extended ramp v(t) = v0 + slope * t into the
// rational load, evaluated by central-differencing the closed-form charge.
double current_at(const ChargeModel& load, double slope, double v0, double t) {
  const double dt = std::max(t, 1e-12) * 1e-6;
  // Keep the stencil inside (0, inf): charge is identically zero for t < 0,
  // so a stencil straddling the origin would halve the current there.
  const double tc = std::max(t, dt);
  const double qp = load.ramp_charge(slope, tc + dt) + load.step_charge(v0, tc + dt);
  const double qm = load.ramp_charge(slope, tc - dt) + load.step_charge(v0, tc - dt);
  return (qp - qm) / (2.0 * dt);
}

}  // namespace

double ceff_first_ramp(const ChargeModel& load, double f, double tr1) {
  check_window(f, tr1);
  // Unit supply: slope 1/tr1, swing f.
  return load.window_charge(1.0 / tr1, 0.0, 0.0, f * tr1) / f;
}

double ceff_second_ramp(const ChargeModel& load, double f, double tr1, double tr2) {
  check_window(f, tr1);
  ensure(f < 1.0, "ceff_second_ramp: breakpoint must be below 1");
  ensure(tr2 > 0.0, "ceff_second_ramp: tr2 must be positive");
  const double k = 1.0 - tr1 / tr2;
  const double t_begin = f * tr1;
  const double t_end = t_begin + (1.0 - f) * tr2;
  return load.window_charge(1.0 / tr2, k * f, t_begin, t_end) / (1.0 - f);
}

double ceff_single(const ChargeModel& load, double tr) {
  return ceff_first_ramp(load, 1.0, tr);
}

double ceff_first_ramp_eq4(const moments::RationalAdmittance& y, double f, double tr1) {
  check_window(f, tr1);
  ensure(y.pole_count() == 2 && !y.complex_poles(),
         "ceff_first_ramp_eq4: requires two real poles");
  const auto ps = y.poles();
  const double s1 = ps[0].real();
  const double s2 = ps[1].real();
  const double t = f * tr1;
  auto term = [&](double si, double sj) {
    const double n = y.a1() + y.a2() * si + y.a3() * si * si;
    return n / (tr1 * f * y.b2() * si * si * (si - sj)) * (std::exp(si * t) - 1.0);
  };
  return y.a1() + term(s1, s2) + term(s2, s1);
}

double ceff_second_ramp_eq6(const moments::RationalAdmittance& y, double f, double tr1,
                            double tr2) {
  check_window(f, tr1);
  ensure(f < 1.0 && tr2 > 0.0, "ceff_second_ramp_eq6: bad window");
  ensure(y.pole_count() == 2 && !y.complex_poles(),
         "ceff_second_ramp_eq6: requires two real poles");
  const auto ps = y.poles();
  const double s1 = ps[0].real();
  const double s2 = ps[1].real();
  const double k = 1.0 - tr1 / tr2;
  auto coeff = [&](double si, double sj) {
    const double n = y.a1() + y.a2() * si + y.a3() * si * si;
    return n * (1.0 + k * f * si * tr2) /
           ((1.0 - f) * y.b2() * si * si * (si - sj) * tr2);
  };
  auto term = [&](double si, double sj) {
    return coeff(si, sj) * std::exp(si * f * tr1) *
           (std::exp(si * (1.0 - f) * tr2) - 1.0);
  };
  return y.a1() + term(s1, s2) + term(s2, s1);
}

double ceff_first_ramp_numeric(const ChargeModel& load, double f, double tr1) {
  check_window(f, tr1);
  const double q = util::integrate(
      [&](double t) { return current_at(load, 1.0 / tr1, 0.0, t); }, 0.0, f * tr1);
  return q / f;
}

double ceff_second_ramp_numeric(const ChargeModel& load, double f, double tr1,
                                double tr2) {
  check_window(f, tr1);
  ensure(f < 1.0 && tr2 > 0.0, "ceff_second_ramp_numeric: bad window");
  const double k = 1.0 - tr1 / tr2;
  const double t_begin = f * tr1;
  const double t_end = t_begin + (1.0 - f) * tr2;
  const double q = util::integrate(
      [&](double t) { return current_at(load, 1.0 / tr2, k * f, t); }, t_begin, t_end);
  return q / (1.0 - f);
}

namespace {

// Stop once a pass moves Ceff by less than this fraction of its value.
constexpr double kCeffRelTol = 1e-6;

// The one Ceff <-> cell-table fixed point: c -> (table) ramp time -> Ceff,
// from c = Ctotal, with the iterate clamped to [1e-4, upper] * Ctotal.  A
// template over the window's Ceff so a pass makes one indirect call, the
// table lookup behind `transition`.  The solver returns the last point it
// evaluated, so that pass's ramp time is the answer's; a capped-out start
// (max_iter = 0) still looks its ramp time up once.
template <class CeffOfTr>
CeffIteration run_iteration(const ChargeModel& load, const TransitionFn& transition,
                            const CeffOfTr& ceff_of_tr, const CeffIterationOptions& options,
                            double upper) {
  const double c_total = load.admittance().total_capacitance();
  util::FixedPointOptions fp;
  fp.rel_tol = kCeffRelTol;
  fp.max_iter = options.max_iter;
  fp.budget = options.budget;
  fp.lower = 1e-4 * c_total;
  fp.upper = upper * c_total;

  double tr = 0.0;
  const util::FixedPointResult r = util::fixed_point(
      [&](double c) {
        tr = transition(c);
        ensure(tr > 0.0, "ceff iteration: table returned non-positive ramp time");
        return ceff_of_tr(tr);
      },
      c_total, fp);

  CeffIteration out;
  out.ceff = r.x;
  out.ramp_time = r.iterations > 0 ? tr : transition(r.x);
  out.iterations = r.iterations;
  out.converged = r.converged;
  return out;
}

// Keeps the table lookup in a sane range.  The upper bound is far above the
// total capacitance: the *second* ramp's effective capacitance routinely
// exceeds Ctotal because its window also absorbs charge the initial-step
// window did not deliver.
constexpr double kCeffUpper = 20.0;

}  // namespace

CeffIteration iterate_ceff1(const ChargeModel& load, double f,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options) {
  return run_iteration(load, transition,
                       [&](double tr) { return ceff_first_ramp(load, f, tr); }, options,
                       kCeffUpper);
}

CeffIteration iterate_ceff2(const ChargeModel& load, double f, double tr1,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options) {
  return run_iteration(
      load, transition,
      [&](double tr) { return ceff_second_ramp(load, f, tr1, tr); }, options,
      kCeffUpper);
}

CeffIteration iterate_ceff_single(const ChargeModel& load,
                                  const TransitionFn& transition,
                                  const CeffIterationOptions& options) {
  return run_iteration(load, transition,
                       [&](double tr) { return ceff_single(load, tr); }, options,
                       kCeffUpper);
}

CeffIteration iterate_ceff3(const ChargeModel& load, double f2, double t_begin,
                            const TransitionFn& transition,
                            const CeffIterationOptions& options) {
  return run_iteration(
      load, transition,
      [&](double tr3) {
        const double v0 = f2 - t_begin / tr3;
        return load.window_charge(1.0 / tr3, v0, t_begin, t_begin + (1.0 - f2) * tr3) /
               (1.0 - f2);
      },
      options, 1.0);
}

}  // namespace rlceff::core
