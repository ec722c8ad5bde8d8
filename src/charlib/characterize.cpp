#include "charlib/characterize.h"

#include <cmath>

#include "sim/sweep.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::charlib {

using units::ff;
using units::pf;
using units::ps;

CharacterizationGrid CharacterizationGrid::standard() {
  CharacterizationGrid g;
  g.input_slews = {25 * ps, 50 * ps, 75 * ps, 100 * ps, 150 * ps, 200 * ps, 300 * ps};
  g.loads = {30 * ff, 100 * ff, 200 * ff, 400 * ff, 700 * ff,
             1.0 * pf, 1.4 * pf, 2.0 * pf, 2.8 * pf, 4.0 * pf, 5.5 * pf};
  return g;
}

CharacterizedDriver::CharacterizedDriver(tech::Inverter cell, double vdd, Table2D delay,
                                         Table2D transition, Table2D resistance)
    : cell_(cell),
      vdd_(vdd),
      delay_(std::move(delay)),
      transition_(std::move(transition)),
      resistance_(std::move(resistance)) {}

double CharacterizedDriver::delay(double input_slew, double c_load) const {
  return delay_.lookup(input_slew, c_load);
}

double CharacterizedDriver::output_transition(double input_slew, double c_load) const {
  return transition_.lookup(input_slew, c_load);
}

double CharacterizedDriver::driver_resistance(double input_slew, double c_load) const {
  return resistance_.lookup(input_slew, c_load);
}

tech::DeckOptions characterization_deck(const tech::Technology& technology,
                                        const tech::Inverter& cell, double input_slew,
                                        double c_load) {
  // Rough RC estimate used only to size the simulation horizon.
  const double rs_estimate = 3.7e3 / cell.size;
  tech::DeckOptions deck;
  deck.t_start = 10 * ps;
  const double settle = 6.0 * rs_estimate * (c_load + cell.output_capacitance(technology));
  deck.t_stop = deck.t_start + input_slew + std::max(300 * ps, settle);
  deck.dt = 0.25 * ps;
  // Only the output edge is measured: end the run at its 90 % crossing.
  deck.sim.edge_stop.vdd = technology.vdd;
  return deck;
}

CharacterizedDriver characterize_driver(const tech::Technology& technology,
                                        const tech::Inverter& cell,
                                        const CharacterizationGrid& grid) {
  ensure(!grid.input_slews.empty() && !grid.loads.empty(),
         "characterize_driver: empty grid");

  const std::size_t n_slew = grid.input_slews.size();
  const std::size_t n_load = grid.loads.size();
  std::vector<double> delay_vals(n_slew * n_load);
  std::vector<double> tran_vals(n_slew * n_load);
  std::vector<double> rs_vals(n_slew * n_load);

  // Every grid point is an independent deck; run them on the sweep pool.
  sim::run_indexed_sweep(
      n_slew * n_load,
      [&](std::size_t k) {
        const double slew = grid.input_slews[k / n_load];
        const double c_load = grid.loads[k % n_load];
        const tech::DeckOptions deck = characterization_deck(technology, cell, slew, c_load);

        double input_t50 = 0.0;
        const wave::Waveform out = tech::simulate_driver_cap_load(
            technology, cell, slew, c_load, deck, &input_t50);
        const wave::EdgeTiming edge =
            wave::measure_rising_edge(out, 0.0, technology.vdd);

        delay_vals[k] = edge.t50 - input_t50;
        tran_vals[k] = edge.ramp_transition();
        // Thevenin fit of ref [3]: v(t) = Vdd * (1 - exp(-t / Rs C)) between
        // the 50 % and 90 % crossings gives t90 - t50 = Rs C ln 5.
        rs_vals[k] = (edge.t90 - edge.t50) / (c_load * std::log(5.0));
      },
      grid.n_threads);

  Table2D delay(grid.input_slews, grid.loads, std::move(delay_vals));
  Table2D transition(grid.input_slews, grid.loads, std::move(tran_vals));
  Table2D resistance(grid.input_slews, grid.loads, std::move(rs_vals));
  return CharacterizedDriver(cell, technology.vdd, std::move(delay), std::move(transition),
                             std::move(resistance));
}

}  // namespace rlceff::charlib
