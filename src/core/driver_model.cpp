#include "core/driver_model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/breakpoint.h"
#include "moments/admittance.h"
#include "util/error.h"
#include "util/poly.h"

namespace rlceff::core {

namespace {

// Slowest natural mode of the driver-resistance-plus-load system: the most
// negative-real-part-closest-to-zero root of 1 + Rs * Y(s) = 0, i.e. of
//   a3 Rs s^3 + (b2 + a2 Rs) s^2 + (b1 + a1 Rs) s + 1 = 0.
// Returns 0 when no stable real dominant mode exists.
double dominant_tail_tau(const moments::RationalAdmittance& y, double rs) {
  const double c3 = y.a3() * rs;
  const double c2 = y.b2() + y.a2() * rs;
  const double c1 = y.b1() + y.a1() * rs;
  std::array<util::Complex, 3> roots{};
  int count = 0;
  if (c3 != 0.0) {
    roots = util::cubic_roots(c3, c2, c1, 1.0);
    count = 3;
  } else if (c2 != 0.0) {
    const auto r2 = util::quadratic_roots(c2, c1, 1.0);
    roots[0] = r2[0];
    roots[1] = r2[1];
    count = 2;
  } else if (c1 != 0.0) {
    roots[0] = util::Complex(-1.0 / c1, 0.0);
    count = 1;
  }
  double tau = 0.0;
  for (int i = 0; i < count; ++i) {
    const util::Complex s = roots[static_cast<std::size_t>(i)];
    // Dominant mode must be real and stable to act as an exponential tail.
    if (s.real() < 0.0 && std::abs(s.imag()) < 1e-6 * std::abs(s.real())) {
      tau = std::max(tau, -1.0 / s.real());
    }
  }
  return tau;
}

// Ramp followed by an exponential settle with time constant tau (the
// ref-[11] gate-resistor shape).  The switch point is where the exponential
// through the remaining swing has the same slope as the ramp,
// v_switch = 1 - tau/tr, clamped to [0.5, 0.9] so the 50 % anchor stays on
// the ramp and degenerate tails stay finite.
wave::Pwl ramp_with_tail(double tr, double tau, double vdd) {
  static constexpr double kTailSamples[] = {0.3, 0.7, 1.2, 1.8, 2.6, 3.6, 5.0};
  const double v_switch = std::clamp(1.0 - tau / tr, 0.5, 0.9);
  std::vector<std::pair<double, double>> pts;
  pts.reserve(std::size(kTailSamples) + 3);
  pts.emplace_back(0.0, 0.0);
  const double t_switch = v_switch * tr;
  pts.emplace_back(t_switch, v_switch * vdd);
  // Sample the exponential densely enough for 10-90 measurements.
  for (double x : kTailSamples) {
    pts.emplace_back(t_switch + x * tau,
                     vdd - (1.0 - v_switch) * vdd * std::exp(-x));
  }
  pts.emplace_back(t_switch + 7.0 * tau, vdd);
  return wave::Pwl(std::move(pts));
}

// Shifts a PWL so that its 50 % (of vdd) rising crossing lands at t50.
wave::Pwl anchor_at_t50(const wave::Pwl& pwl, double vdd, double t50) {
  const wave::Waveform w = pwl.to_waveform(pwl.end_time() + 1e-12);
  const auto crossing = w.first_crossing(0.5 * vdd, true);
  ensure(crossing.has_value(), "anchor_at_t50: waveform never reaches Vdd/2");
  const double shift = t50 - *crossing;
  std::vector<std::pair<double, double>> pts = pwl.points();
  for (auto& [t, v] : pts) t += shift;
  return wave::Pwl(std::move(pts));
}

// The flow on the load's driving-point admittance series and its
// dominant-path metrics.
DriverOutputModel run_flow(const charlib::CharacterizedDriver& driver,
                           double input_slew, const util::Series& admittance,
                           const net::NetMetrics& metrics,
                           const DriverModelOptions& options) {
  ensure(input_slew > 0.0, "model_driver_output: input slew must be positive");

  DriverOutputModel m;
  m.vdd = driver.vdd();

  // Step 1: Eq-3 fit of the admittance moments.
  m.admittance = moments::RationalAdmittance(admittance);
  const ChargeModel load(m.admittance);
  const double c_total = m.admittance.total_capacitance();

  // Step 2: driver resistance and voltage breakpoint.
  m.z0 = metrics.z0;
  m.tf = metrics.time_of_flight;
  m.rs = driver.driver_resistance(input_slew, c_total);
  m.f = breakpoint_fraction(m.z0, m.rs);

  const TransitionFn transition = [&](double c) {
    return driver.output_transition(input_slew, c);
  };

  // Step 3: Ceff1 at the two-ramp breakpoint.
  m.ceff1 = iterate_ceff1(load, m.f, transition, options.iteration);

  if (!options.rs_at_total_cap) {
    // Ablation: re-extract Rs at the converged Ceff1 and redo steps 2-3.
    m.rs = driver.driver_resistance(input_slew, m.ceff1.ceff);
    m.f = breakpoint_fraction(m.z0, m.rs);
    m.ceff1 = iterate_ceff1(load, m.f, transition, options.iteration);
  }

  // Step 4: inductance criteria with the output-referred initial ramp.
  m.criteria = evaluate_criteria(m.z0, m.tf, metrics.path_resistance,
                                 metrics.wire_capacitance, metrics.path_load, m.rs,
                                 m.ceff1.ramp_time);

  const bool two_ramp = options.selection == ModelSelection::force_two_ramp ||
                        (options.selection == ModelSelection::automatic &&
                         m.criteria.significant());

  if (!two_ramp) {
    // One effective capacitance over the whole transition (f = 1).
    m.kind = ModelKind::one_ramp;
    m.ceff1 = iterate_ceff_single(load, transition, options.iteration);
    m.f = 1.0;
    const double tr = m.ceff1.ramp_time;
    const double delay = driver.delay(input_slew, m.ceff1.ceff);
    m.t50 = delay;

    // Ref [11]: under resistive shielding the real edge settles with the
    // slowest natural mode of the Rs-plus-load system, which a single ramp
    // misses.  Append the gate-resistor tail unless the mode is too fast to
    // matter.
    if (options.shielding_tail && m.ceff1.ceff < c_total) {
      const double tau = dominant_tail_tau(m.admittance, m.rs);
      if (tau > 0.1 * tr) {
        m.has_shielding_tail = true;
        m.tail_tau = tau;
        m.waveform = anchor_at_t50(ramp_with_tail(tr, tau, m.vdd), m.vdd, delay);
        return m;
      }
    }
    m.waveform = anchor_at_t50(wave::ramp(0.0, tr, 0.0, m.vdd), m.vdd, delay);
    return m;
  }

  // Step 5: second ramp.
  m.kind = ModelKind::two_ramp;
  const double tr1 = m.ceff1.ramp_time;
  m.ceff2 = iterate_ceff2(load, m.f, tr1, transition, options.iteration);
  const double tr2 = m.ceff2.ramp_time;

  // Plateau: no charge transfers while the wave is in flight (Eq 8).
  m.plateau_time = std::max(0.0, 2.0 * m.tf - tr1);
  m.tr2_new = tr2;
  double flat = 0.0;
  switch (options.plateau) {
    case PlateauHandling::modified_second_ramp:
      m.tr2_new = tr2 + m.plateau_time / (1.0 - m.f);
      break;
    case PlateauHandling::flat_step:
      flat = m.plateau_time;
      break;
    case PlateauHandling::none:
      break;
  }

  const double delay = driver.delay(input_slew, m.ceff1.ceff);
  m.t50 = delay;

  if (options.three_ramp_extension && m.f < 0.9) {
    // Second reflection: the lattice diagram with an (almost) open far end
    // puts the next near-end level at f*(2 + rho_s) * Vdd, rho_s being the
    // source reflection coefficient.  Clamp below 1: later steps merge into
    // the supply rail (the paper's point D).
    const double rho_s = (m.rs - m.z0) / (m.rs + m.z0);
    m.f2 = std::min(m.f * (2.0 + rho_s), 0.98);
    if (m.f2 > m.f + 0.02) {
      m.kind = ModelKind::three_ramp;
      const double t_begin2 = m.f * tr1 + flat;
      const double t_end2 = t_begin2 + (m.f2 - m.f) * m.tr2_new;
      // Third-ramp Ceff: window [t_end2, t_end2 + (1 - f2) * Tr3] of the
      // extended ramp through (t_end2, f2 * Vdd).
      m.ceff3 = iterate_ceff3(load, m.f2, t_end2, transition, options.iteration);
      const double tr3 = m.ceff3.ramp_time;
      std::vector<std::pair<double, double>> pts;
      pts.emplace_back(0.0, 0.0);
      pts.emplace_back(m.f * tr1, m.f * m.vdd);
      if (flat > 0.0) pts.emplace_back(m.f * tr1 + flat, m.f * m.vdd);
      pts.emplace_back(t_end2, m.f2 * m.vdd);
      pts.emplace_back(t_end2 + (1.0 - m.f2) * tr3, m.vdd);
      m.waveform = anchor_at_t50(wave::Pwl(std::move(pts)), m.vdd, delay);
      return m;
    }
  }

  const wave::Pwl shape = (flat > 0.0)
                              ? wave::three_piece(0.0, m.f, tr1, flat, m.tr2_new, m.vdd)
                              : wave::two_ramp(0.0, m.f, tr1, m.tr2_new, m.vdd);
  m.waveform = anchor_at_t50(shape, m.vdd, delay);
  return m;
}

}  // namespace

DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew, const net::Net& net,
                                      const DriverModelOptions& options) {
  const net::NetMetrics metrics = net.metrics();
  return run_flow(driver, input_slew, moments::net_admittance(net), metrics, options);
}

DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew,
                                      const tech::WireParasitics& wire,
                                      double c_load_far,
                                      const DriverModelOptions& options) {
  ensure(c_load_far >= 0.0, "model_driver_output: negative far-end load");
  return model_driver_output(
      driver, input_slew,
      net::Net::uniform_line(wire.resistance, wire.inductance, wire.capacitance,
                             c_load_far),
      options);
}

DriverOutputModel model_driver_output(const charlib::CharacterizedDriver& driver,
                                      double input_slew,
                                      const moments::RlcBranch& tree,
                                      const DriverModelOptions& options) {
  return model_driver_output(driver, input_slew, net::Net::from_tree(tree), options);
}

DriverOutputModel estimate_driver_output_moments_only(
    const charlib::CharacterizedDriver& driver, double input_slew,
    const net::Net& net) {
  ensure(input_slew > 0.0, "estimate_driver_output: input slew must be positive");
  ensure(!net.empty(), "estimate_driver_output: net is empty");

  DriverOutputModel m;
  m.vdd = driver.vdd();
  m.kind = ModelKind::one_ramp;
  m.f = 1.0;

  const double c_total = net.total_capacitance();
  ensure(c_total > 0.0, "estimate_driver_output: net has no capacitance");
  m.rs = driver.driver_resistance(input_slew, c_total);

  m.ceff1.ceff = c_total;
  m.ceff1.ramp_time = driver.output_transition(input_slew, c_total);
  m.ceff1.iterations = 0;
  m.ceff1.converged = true;

  m.t50 = driver.delay(input_slew, c_total);
  m.waveform = anchor_at_t50(wave::ramp(0.0, m.ceff1.ramp_time, 0.0, m.vdd),
                             m.vdd, m.t50);
  return m;
}

}  // namespace rlceff::core
