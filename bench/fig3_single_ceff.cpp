// Figure 3 reproduction: why one effective capacitance cannot model an
// inductive driving-point waveform.
//
// Case: 7 mm x 1.6 um line (R = 101.3 ohm, L = 7.1 nH, C = 1.54 pF), 75X
// driver, 100 ps input slew.  Two single-Ceff variants are computed exactly
// as in Sec. 4: equating charge up to the 50 % point (f = 0.5) and over the
// whole transition (f = 1).  The driver is then re-simulated with each plain
// capacitor; the 50 % variant tracks the delay but badly misses the tail,
// the 100 % variant averages both away.
#include <cstdio>

#include "bench_common.h"
#include "core/ceff.h"
#include "core/charge.h"
#include "moments/admittance.h"
#include "tech/testbench.h"
#include "tech/wire.h"

using namespace rlceff;
using namespace rlceff::units;

int main() {
  std::printf("== Figure 3: single-Ceff approximations vs actual driver output ==\n");
  const tech::WireParasitics wire = *tech::find_paper_wire_case(7.0, 1.6);
  const double size = 75.0;
  const double slew = 100 * ps;
  const double c_far = 20 * ff;
  std::printf("line: R=%.1f ohm L=%.1f nH C=%.2f pF, driver %gX, input slew %.0f ps\n",
              wire.resistance, wire.inductance / nh, wire.capacitance / pf, size,
              slew / ps);

  bench::warm_library({size});
  const charlib::CharacterizedDriver& driver = *bench::library().find(size);

  const util::Series y_series = moments::distributed_line_admittance(
      wire.resistance, wire.inductance, wire.capacitance, c_far);
  const core::ChargeModel load{moments::RationalAdmittance(y_series)};
  const auto transition = [&](double c) { return driver.output_transition(slew, c); };

  // "Charge till 50 %": the Eq 4/5 window with f = 0.5.
  const core::CeffIteration half = core::iterate_ceff1(load, 0.5, transition);
  // "Charge till 100 %": the single Ceff of Sec. 5 (f = 1).
  const core::CeffIteration full = core::iterate_ceff_single(load, transition);
  const double c_total = wire.capacitance + c_far;
  std::printf("\nCeff(till 50%%) = %.3f pF   Ceff(till 100%%) = %.3f pF   Ctotal = %.3f pF\n",
              half.ceff / pf, full.ceff / pf, c_total / pf);

  // Reference: driver into the real line; approximations: driver into Ceff.
  tech::DeckOptions deck;
  deck.segments = 160;
  deck.dt = 0.25 * ps;
  deck.t_stop = 1.2e-9;
  const tech::NetSimResult actual = tech::simulate_driver_net(
      bench::technology(), tech::Inverter{size}, slew, tech::line_net(wire, c_far), deck);
  const wave::Waveform w_half = tech::simulate_driver_cap_load(
      bench::technology(), tech::Inverter{size}, slew, half.ceff, deck);
  const wave::Waveform w_full = tech::simulate_driver_cap_load(
      bench::technology(), tech::Inverter{size}, slew, full.ceff, deck);

  std::printf("\n'*' actual RLC load, '5' Ceff(till 50%%), '1' Ceff(till 100%%):\n");
  bench::ascii_plot({&actual.near_end, &w_half, &w_full}, {'*', '5', '1'}, 0.0,
                    700 * ps, 2.1);

  const double vdd = bench::technology().vdd;
  const auto m_act = wave::measure_rising_edge(actual.near_end, 0.0, vdd);
  const auto m_half = wave::measure_rising_edge(w_half, 0.0, vdd);
  const auto m_full = wave::measure_rising_edge(w_full, 0.0, vdd);
  const double t0 = actual.input_time_50;

  std::printf("\nwaveform              delay [ps]      slew 10-90 [ps]\n");
  std::printf("actual RLC load       %8.1f        %8.1f\n", (m_act.t50 - t0) / ps,
              m_act.transition_10_90() / ps);
  std::printf("Ceff till 50%%         %8.1f (%s)  %8.1f (%s)\n",
              (m_half.t50 - t0) / ps,
              bench::pct(100.0 * ((m_half.t50 - t0) / (m_act.t50 - t0) - 1.0)).c_str(),
              m_half.transition_10_90() / ps,
              bench::pct(100.0 * (m_half.transition_10_90() / m_act.transition_10_90() - 1.0))
                  .c_str());
  std::printf("Ceff till 100%%        %8.1f (%s)  %8.1f (%s)\n",
              (m_full.t50 - t0) / ps,
              bench::pct(100.0 * ((m_full.t50 - t0) / (m_act.t50 - t0) - 1.0)).c_str(),
              m_full.transition_10_90() / ps,
              bench::pct(100.0 * (m_full.transition_10_90() / m_act.transition_10_90() - 1.0))
                  .c_str());
  std::printf(
      "\npaper's conclusion: neither single capacitance captures both delay and\n"
      "slew of an inductive waveform -> two effective capacitances (Sec. 4).\n");
  return 0;
}
