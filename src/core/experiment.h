// Shared experiment harness: one paper test case = one driver + interconnect
// configuration, simulated ("HSPICE" column) and modeled (two-ramp and
// one-ramp columns), with uniformly measured delay/slew.
//
// The interconnect is a net::Net, so the same harness sweeps uniform lines,
// multi-section (tapered) routes and branched trees.  The "far end" columns
// are measured at the dominant-path leaf (net::NetMetrics::dominant_leaf).
//
// All delays are 50 %-to-50 % from the input edge; slew is the raw 10-90 %
// transition at the probe.  The same measurement code runs on simulated and
// modeled waveforms, so model-vs-reference errors are apples to apples.
#ifndef RLCEFF_CORE_EXPERIMENT_H
#define RLCEFF_CORE_EXPERIMENT_H

#include <string>

#include "charlib/library.h"
#include "core/driver_model.h"
#include "net/net.h"
#include "tech/testbench.h"

namespace rlceff::core {

struct ExperimentCase {
  std::string label;
  double driver_size = 75.0;
  double input_slew = 100e-12;
  net::Net net;  // the interconnect the driver drives (see tech::line_net)
};

struct EdgeMetrics {
  double delay = 0.0;  // input 50 % -> probe 50 % [s]
  double slew = 0.0;   // probe 10 % -> 90 % [s]
};

// The one edge-measurement convention (rising edge, delay vs t_reference,
// raw 10-90 % slew) shared by the single-net and coupled harnesses.
EdgeMetrics measure_edge(const wave::Waveform& w, double vdd, double t_reference);

struct ExperimentOptions {
  tech::DeckOptions deck;          // simulator fidelity (t_stop auto-sized)
  DriverModelOptions model;        // paper flow controls
  bool include_one_ramp = true;    // also run the 1-ramp baseline
  bool include_far_end = true;     // replay the model at the far end
  // Retain sampled waveforms (figure benches).  Off, both decks end at their
  // last measured crossing (sim::EdgeStop); on, they run the full horizon.
  // Either way deck.sim.edge_stop is ignored.
  bool keep_waveforms = false;
  // Grid used when a driver has to be characterized (tests shrink this).
  charlib::CharacterizationGrid grid = charlib::CharacterizationGrid::standard();
};

struct ExperimentResult {
  EdgeMetrics ref_near;   // simulated driver output
  EdgeMetrics ref_far;    // simulated far end
  EdgeMetrics model_near; // measured on the modeled PWL
  EdgeMetrics model_far;  // modeled PWL replayed through the line
  EdgeMetrics one_near;   // one-ramp baseline at the driver output

  DriverOutputModel model;
  DriverOutputModel one_ramp;

  // Populated when keep_waveforms is set; times are absolute deck time.
  wave::Waveform ref_near_wave;
  wave::Waveform ref_far_wave;
  wave::Waveform model_far_wave;
  double input_time_50 = 0.0;

  // Backend that factored the reference deck (never `automatic`).
  sim::SolverKind solver = sim::SolverKind::automatic;
};

// Runs the reference simulation and both models for one case.  The library
// caches driver characterizations across calls.
ExperimentResult run_experiment(const tech::Technology& technology,
                                charlib::CellLibrary& library,
                                const ExperimentCase& scenario,
                                const ExperimentOptions& options = {});

// Relative error helper used in the paper's tables: (model - ref) / ref.
double pct_error(double model, double reference);

// Settle-horizon heuristic shared by the single-net and coupled harnesses:
// six time constants of the estimated driver resistance plus the dominant
// path into the net's total charge, plus four times of flight.  extra_cap is
// charge beyond the net's own (e.g. attached coupling capacitance).
double settle_time(double driver_size, const net::NetMetrics& metrics,
                   double extra_cap = 0.0);

// The horizon of a deck whose input edge starts at t_start: the edge plus
// settle_time, at least 1 ns, so even the slowest (weak driver, long line)
// case completes its 90 % crossing with margin.  run_experiment and the
// Engine's far-end replay size their decks with it; run_coupled_experiment
// takes the longest over its nets.
double settle_horizon(double t_start, double input_slew, double driver_size,
                      const net::NetMetrics& metrics, double extra_cap = 0.0);

// The modeled driver output in absolute deck time, for replaying it through
// the net: the model's t = 0 is the input's 50 % crossing, input_time_50 in
// the deck.  Anchored waveforms begin at 0 V, as the DC operating point
// needs.
wave::Pwl deck_time_source(const DriverOutputModel& model, double input_time_50);

// Delay (from the model's t = 0) and slew measured on the modeled PWL alone,
// without a deck.
EdgeMetrics measure_modeled_edge(const DriverOutputModel& model, double vdd);

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_EXPERIMENT_H
