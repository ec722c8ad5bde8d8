#include "tier/analytical.h"

#include <algorithm>
#include <cmath>

#include "core/breakpoint.h"
#include "core/ceff.h"
#include "net/coupled.h"

namespace rlceff::tier {

double shield_factor(double x) {
  if (!(x > 0.0)) return 0.0;
  // Below ~1e-4 the direct form loses precision to cancellation; the series
  // g(x) = x/2 - x^2/6 + ... is exact to double precision there.
  if (x < 1e-4) return x * (0.5 - x / 6.0);
  return 1.0 - (1.0 - std::exp(-x)) / x;
}

namespace {

// Tier A's fixed-point solver: secant steps on the residual
// g(c) = Ceff(Tr(c)) - c, started from Ctotal.  The engine's core::iterate_*
// helpers run a bracketed secant to 1e-6 (5 table passes at the median);
// the screen solves the same equation, unbracketed, to the table's own
// accuracy in 2-4 evaluations.  `rel_tol` is relative to Ctotal; the second
// ramp runs looser than the first because tr2 only shapes the skeleton's
// tail.
// Same clamp range as core::run_iteration.
template <class CeffOfTr>
core::CeffIteration solve_ceff(const charlib::CharacterizedDriver& driver,
                               double input_slew, double c_total, double rel_tol,
                               double c_start, const CeffOfTr& ceff_of_tr) {
  const double tol = rel_tol * c_total;
  const double lo = 1e-4 * c_total;
  const double hi = 20.0 * c_total;
  double c0 = std::clamp(c_start, lo, hi);
  double tr = driver.output_transition(input_slew, c0);
  double g0 = ceff_of_tr(tr) - c0;
  double c1 = std::clamp(c0 + g0, lo, hi);
  double g1 = g0;
  int n = 1;
  while (std::abs(g0) > tol && n < 16) {
    tr = driver.output_transition(input_slew, c1);
    g1 = ceff_of_tr(tr) - c1;
    ++n;
    if (std::abs(g1) <= tol) break;
    const double denom = g1 - g0;
    double c2 = denom != 0.0 ? c1 - g1 * (c1 - c0) / denom : c1 + g1;
    c2 = std::clamp(c2, lo, hi);
    c0 = c1;
    g0 = g1;
    c1 = c2;
  }
  core::CeffIteration out;
  out.ceff = c1;
  out.ramp_time = tr;
  out.iterations = n;
  out.converged = std::abs(g1) <= tol || std::abs(g0) <= tol;
  return out;
}

}  // namespace

AnalyticalEstimate analytical_estimate(const charlib::CharacterizedDriver& driver,
                                       double input_slew, const net::Net& net) {
  AnalyticalEstimate out;
  out.metrics = net.metrics_relaxed();

  // The same 5-moment charge model the Ceff flow fits, but from the flattened
  // fast walk instead of the Series cascade.  Sharing the load model keeps
  // Tier A's shielded capacitances on top of Tier B's by construction; the
  // only divergence left is the ladder discretization of the moments.
  const util::Series y = moments::fast_net_admittance(net);
  const moments::RationalAdmittance fit(y);
  const core::ChargeModel load(fit);

  const double c_total = out.metrics.total_capacitance();
  const double rs = driver.driver_resistance(input_slew, c_total);

  core::DriverOutputModel& m = out.model;
  m.vdd = driver.vdd();
  m.rs = rs;
  m.z0 = out.metrics.z0;
  m.tf = out.metrics.time_of_flight;

  // Model selection mirrors the Ceff flow step for step: solve the Eq 1
  // breakpoint window first when the net has a flight time, evaluate the
  // Eq 9 criteria at that converged ramp time, and fall back to the whole
  // transition (one ramp) when the transmission-line response does not
  // matter.  Evaluating the criteria at the *breakpoint-window* ramp keeps
  // the screen's one/two-ramp choice — and the router's inductance refusal —
  // aligned with the tier it must agree with.  Pure-RC nets (tf == 0, the
  // tier's common case) take the single solve directly.
  double f = 1.0;
  if (m.tf > 0.0) {
    const double f_bp = core::breakpoint_fraction(m.z0, rs);
    m.ceff1 = solve_ceff(driver, input_slew, c_total, 1e-3, c_total,
                         [&](double tr) { return core::ceff_first_ramp(load, f_bp, tr); });
    m.criteria = core::evaluate_criteria(
        m.z0, m.tf, out.metrics.path_resistance, out.metrics.wire_capacitance,
        out.metrics.path_load, rs, m.ceff1.ramp_time);
    if (m.criteria.significant()) f = f_bp;
  }
  if (f >= 1.0) {
    m.ceff1 = solve_ceff(driver, input_slew, c_total, 1e-3, c_total,
                         [&](double tr) { return core::ceff_single(load, tr); });
  }
  const double ceff = m.ceff1.ceff;
  const double tr1 = m.ceff1.ramp_time;
  out.shielding = c_total > 0.0 ? ceff / c_total : 1.0;
  const double delay1 = driver.delay(input_slew, ceff);

  // Second ramp (breakpoint below the rail): its window runs to the end of
  // the transition, where the shield has mostly discharged.
  if (f < 1.0) {
    // Charge conservation warm start: the first window deferred
    // (Ctotal - Ceff1) * f * vdd of charge, and the second window (swing
    // (1 - f) * vdd) absorbs it on top of its own share — typically within a
    // few percent of the converged value, so the solve usually accepts it
    // after one evaluation.
    const double c2_start = c_total + (c_total - ceff) * f / (1.0 - f);
    m.ceff2 = solve_ceff(driver, input_slew, c_total, 3e-2, c2_start, [&](double tr) {
      return core::ceff_second_ramp(load, f, tr1, tr);
    });
  }
  const double tr2 = f < 1.0 ? m.ceff2.ramp_time : tr1;

  // Two-ramp skeleton, anchored so an extended first ramp crosses 50 % at
  // the table delay: ramp 1 (slope vdd/tr1) from t_a = delay1 - tr1/2 to the
  // breakpoint at f*vdd, ramp 2 (slope vdd/tr2) from there to the rail.
  const double t_break = delay1 + (f - 0.5) * tr1;
  out.delay = f < 0.5 ? delay1 + (0.5 - f) * (tr2 - tr1) : delay1;
  if (f >= 0.9) {
    out.slew_10_90 = 0.8 * tr1;
  } else if (f >= 0.1) {
    out.slew_10_90 = (f - 0.1) * tr1 + (0.9 - f) * tr2;
  } else {
    out.slew_10_90 = 0.8 * tr2;
  }

  m.f = f;
  m.admittance = fit;
  m.t50 = out.delay;
  if (f < 1.0) {
    m.kind = core::ModelKind::two_ramp;
    m.waveform = wave::Pwl({{delay1 - 0.5 * tr1, 0.0},
                            {t_break, f * m.vdd},
                            {t_break + (1.0 - f) * tr2, m.vdd}});
  } else {
    m.kind = core::ModelKind::one_ramp;
    m.waveform = wave::ramp(delay1 - 0.5 * tr1, tr1, 0.0, m.vdd);
  }
  return out;
}

double noise_bound(const net::CoupledGroup& group, std::size_t victim, double vdd) {
  const double cc = group.coupling_capacitance_at(victim);
  if (cc <= 0.0) return 0.0;
  const double cg = group.net_at(victim).total_capacitance();
  return vdd * cc / (cc + cg);
}

}  // namespace rlceff::tier
