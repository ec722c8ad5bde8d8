// Coupled aggressor/victim experiment harness.
//
// One coupled case = a net::CoupledGroup, a victim net index, a driver per
// net, and a switching direction per aggressor.  The harness runs three
// views of the victim side by side:
//   * reference — the full coupled system simulated at once (every net gets
//     its inverter, coupling caps and mutual inductors stamped as-is),
//   * baseline — the victim alone in its quiet environment (all coupling
//     caps grounded at 1x), which anchors the delay-pushout measurement,
//   * model — the paper's Ceff flow run on the Miller-decoupled victim net:
//     each coupling cap is switched to ground scaled by its aggressor's
//     Miller factor (0x when the aggressor switches with the victim, 1x when
//     quiet, 2x when it switches against it).
// A fourth, optional view holds the victim quiet while the aggressors switch
// and reports the peak victim-noise bump — the classic crosstalk noise
// number the RC/RLC noise papers track.
#ifndef RLCEFF_CORE_COUPLED_EXPERIMENT_H
#define RLCEFF_CORE_COUPLED_EXPERIMENT_H

#include <string>
#include <vector>

#include "charlib/library.h"
#include "core/driver_model.h"
#include "core/experiment.h"
#include "net/coupled.h"
#include "tech/testbench.h"

namespace rlceff::core {

// Aggressor activity relative to the victim's rising output edge.
enum class AggressorSwitching {
  same_direction,  // aggressor output rises with the victim -> 0x Miller
  quiet,           // aggressor holds                        -> 1x Miller
  opposite,        // aggressor output falls                 -> 2x Miller
};

double miller_factor(AggressorSwitching switching);

// Defaults to a quiet neighbor so a scenario whose aggressor list is shorter
// than the group simulates exactly what miller_factors assumes (1x).
struct AggressorDrive {
  double driver_size = 75.0;
  double input_slew = 100e-12;
  AggressorSwitching switching = AggressorSwitching::quiet;
};

struct CoupledExperimentCase {
  std::string label;
  net::CoupledGroup group;
  std::size_t victim = 0;
  double driver_size = 75.0;    // victim driver
  double input_slew = 100e-12;  // victim input ramp
  // One entry per group net (the victim's entry is ignored).  When shorter
  // than the group, the remaining nets default to quiet 75X aggressors.
  std::vector<AggressorDrive> aggressors;
};

struct CoupledExperimentOptions {
  tech::DeckOptions deck;        // simulator fidelity (t_stop auto-sized)
  DriverModelOptions model;      // paper flow controls
  bool include_far_end = true;   // replay the model through the decoupled net
  bool include_noise = true;     // quiet-victim noise simulation
  // Retain sampled waveforms.  Off, the reference, baseline and replay decks
  // end at their last measured crossing (sim::EdgeStop); the noise deck
  // always runs the full horizon.  Either way deck.sim.edge_stop is ignored.
  bool keep_waveforms = false;
  charlib::CharacterizationGrid grid = charlib::CharacterizationGrid::standard();
};

struct CoupledExperimentResult {
  CoupledExperimentCase scenario;

  EdgeMetrics ref_near;   // victim driver output in the coupled simulation
  EdgeMetrics ref_far;    // victim dominant-path leaf in the coupled simulation
  EdgeMetrics base_near;  // quiet-environment (1x) simulated baseline
  EdgeMetrics base_far;
  EdgeMetrics model_near;       // Ceff model on the Miller-decoupled net
  EdgeMetrics model_far;        // model PWL replayed through the decoupled net
  EdgeMetrics model_base_near;  // model in the quiet (1x) environment

  DriverOutputModel model;       // Miller-decoupled model diagnostics
  DriverOutputModel model_base;  // quiet (1x) environment model (equals
                                 // `model` when every Miller factor is 1)

  double delay_pushout = 0.0;        // ref_far - base_far [s] (simulated)
  double delay_pushout_model = 0.0;  // model_near - model_base_near [s]
  double peak_noise = 0.0;           // quiet-victim peak |bump| at the far end [V]
  double input_time_50 = 0.0;        // victim input 50 % crossing [s]

  // Populated when keep_waveforms is set; times are absolute deck time.
  wave::Waveform ref_near_wave;
  wave::Waveform ref_far_wave;
  wave::Waveform noise_wave;  // quiet-victim far end

  // Backend that factored the coupled reference deck (never `automatic`).
  sim::SolverKind solver = sim::SolverKind::automatic;
};

// Per-net Miller factors for a case (1.0 for the victim and for nets beyond
// the aggressor list).
std::vector<double> miller_factors(const CoupledExperimentCase& scenario);

// Runs the coupled reference, the quiet baseline, the noise view, and the
// Miller-decoupled model for one case.  The library caches driver
// characterizations across calls (only the victim's driver needs one; the
// aggressor inverters are simulated directly).
CoupledExperimentResult run_coupled_experiment(const tech::Technology& technology,
                                               charlib::CellLibrary& library,
                                               const CoupledExperimentCase& scenario,
                                               const CoupledExperimentOptions& options = {});

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_COUPLED_EXPERIMENT_H
