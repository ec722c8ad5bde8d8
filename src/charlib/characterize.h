// Library characterization (the pre-characterized cell tables of Sec. 1).
//
// For each driver cell, a grid of transient simulations against pure
// capacitive loads produces the two NLDM-style tables static timing uses —
// 50 % delay and output transition time versus (input slew, load cap) — plus
// the Thevenin output resistance extracted with the method of Dartu, Menezes
// and Pileggi (ref [3]) that Eq 1 needs: fit an exponential between the 50 %
// and 90 % crossings, Rs = (t90 - t50) / (C * ln 5).
//
// Conventions: "slew"/"transition" are full-swing saturated-ramp equivalents,
// (t90 - t10) / 0.8; delay is measured from the input ramp's 50 % crossing to
// the output's 50 % crossing; the characterized edge is the rising output.
#ifndef RLCEFF_CHARLIB_CHARACTERIZE_H
#define RLCEFF_CHARLIB_CHARACTERIZE_H

#include <vector>

#include "charlib/table.h"
#include "tech/inverter.h"
#include "tech/technology.h"
#include "tech/testbench.h"

namespace rlceff::charlib {

struct CharacterizationGrid {
  std::vector<double> input_slews;  // full-swing input ramp times [s]
  std::vector<double> loads;        // load capacitances [F]
  // Worker threads for the grid's independent simulations (0 = one per
  // hardware thread); results are identical for every thread count.
  unsigned n_threads = 0;

  // Covers the paper's sweeps: slews 25-300 ps, loads 30 fF - 2.6 pF.
  static CharacterizationGrid standard();
};

// The characterized view of one driver cell.
class CharacterizedDriver {
public:
  CharacterizedDriver() = default;
  CharacterizedDriver(tech::Inverter cell, double vdd, Table2D delay,
                      Table2D transition, Table2D resistance);

  const tech::Inverter& cell() const { return cell_; }
  double vdd() const { return vdd_; }

  // 50 % propagation delay for a capacitive load [s].
  double delay(double input_slew, double c_load) const;
  // Ramp-equivalent output transition time for a capacitive load [s].
  double output_transition(double input_slew, double c_load) const;
  // Thevenin output resistance at a capacitive load [ohm].
  double driver_resistance(double input_slew, double c_load) const;

  const Table2D& delay_table() const { return delay_; }
  const Table2D& transition_table() const { return transition_; }
  const Table2D& resistance_table() const { return resistance_; }

private:
  tech::Inverter cell_;
  double vdd_ = 0.0;
  Table2D delay_;
  Table2D transition_;
  Table2D resistance_;
};

// The options of grid point (input_slew, c_load)'s deck, an inverter into a
// capacitor (tech::simulate_driver_cap_load): 0.25 ps steps to a horizon
// sized from a rough RC estimate, ended at the output's measured edge.
tech::DeckOptions characterization_deck(const tech::Technology& technology,
                                        const tech::Inverter& cell, double input_slew,
                                        double c_load);

// Runs the characterization grid with the simulator.
CharacterizedDriver characterize_driver(const tech::Technology& technology,
                                        const tech::Inverter& cell,
                                        const CharacterizationGrid& grid =
                                            CharacterizationGrid::standard());

}  // namespace rlceff::charlib

#endif  // RLCEFF_CHARLIB_CHARACTERIZE_H
