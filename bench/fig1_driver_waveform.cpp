// Figure 1 reproduction: driver output waveform of a 5 mm RLC line driven by
// a 75X inverter (R = 72.44 ohm, L = 5.14 nH, C = 1.10 pF).
//
// The paper's figure shows the transmission-line signature at the driving
// point: an initial ramp (A-B), a plateau while the wave is in flight (B-C),
// and a second rise when the far-end reflection returns (C-D) at roughly
// 2*tf after launch.  This bench simulates the same deck and reports the
// instants and levels of those features next to the theory values.
#include <cstdio>

#include "bench_common.h"
#include "tech/testbench.h"
#include "tech/wire.h"

using namespace rlceff;
using namespace rlceff::units;

int main() {
  std::printf("== Figure 1: driver output of a 5 mm x 1.6 um line, 75X inverter ==\n");
  const tech::WireParasitics wire = *tech::find_paper_wire_case(5.0, 1.6);
  std::printf("line: R=%.2f ohm  L=%.2f nH  C=%.2f pF  Z0=%.1f ohm  tf=%.1f ps\n",
              wire.resistance, wire.inductance / nh, wire.capacitance / pf, wire.z0(),
              wire.time_of_flight() / ps);

  tech::DeckOptions deck;
  deck.segments = 160;
  deck.dt = 0.25 * ps;
  deck.t_stop = 0.6e-9;
  const tech::NetSimResult sim = tech::simulate_driver_net(
      bench::technology(), tech::Inverter{75.0}, 100 * ps, tech::line_net(wire, 20 * ff),
      deck);
  const wave::Waveform& far_end = sim.leaves.front();

  std::printf("\ndriver output waveform ('*' near end, '.' far end):\n");
  bench::ascii_plot({&sim.near_end, &far_end}, {'*', '.'}, 0.0, 500 * ps, 2.1);

  // Feature extraction: launch, plateau level, reflection return.
  const double vdd = bench::technology().vdd;
  const double t_launch = sim.near_end.first_crossing(0.1 * vdd, true).value_or(0.0);
  const double tf = wire.time_of_flight();
  const double v_plateau = sim.near_end.value_at(t_launch + 1.6 * tf);
  const double v_before = sim.near_end.value_at(t_launch + 2.0 * tf);
  const double v_after = sim.near_end.value_at(t_launch + 3.0 * tf);

  std::printf("\nfeature                     simulated        theory\n");
  std::printf("plateau level (B-C)         %.2f V           ~f*Vdd (Eq 1)\n", v_plateau);
  std::printf("plateau fraction of Vdd     %.2f             0.5-0.7 for 75X\n",
              v_plateau / vdd);
  std::printf("reflection kink             rise %.2f -> %.2f V across 2tf=%.0f ps\n",
              v_before, v_after, 2.0 * tf / ps);
  std::printf("far end starts moving at    %.0f ps           launch + tf = %.0f ps\n",
              far_end.first_crossing(0.1 * vdd, true).value_or(0.0) / ps,
              (t_launch + tf) / ps);

  std::printf("\nsampled series:\n");
  bench::print_series({&sim.near_end, &far_end}, {"near [V]", "far [V]"}, 0.0,
                      500 * ps, 26);
  return 0;
}
