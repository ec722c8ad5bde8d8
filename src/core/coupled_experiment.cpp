#include "core/coupled_experiment.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"

namespace rlceff::core {

namespace {

// The whole coupled deck shares the longest net's settle_horizon, each net's
// attached coupling capacitance added to the charge it must move.
double auto_t_stop(const CoupledExperimentCase& c, const CoupledExperimentOptions& o) {
  double t_stop = 0.0;
  for (std::size_t k = 0; k < c.group.size(); ++k) {
    const net::NetMetrics metrics = c.group.net_at(k).metrics();
    double driver_size = c.driver_size;
    double slew = c.input_slew;
    if (k != c.victim) {
      const AggressorDrive aggressor =
          k < c.aggressors.size() ? c.aggressors[k] : AggressorDrive{};
      driver_size = aggressor.driver_size;
      slew = aggressor.input_slew;
    }
    t_stop = std::max(t_stop, settle_horizon(o.deck.t_start, slew, driver_size, metrics,
                                             c.group.coupling_capacitance_at(k)));
  }
  return t_stop;
}

tech::DriveEdge edge_for(AggressorSwitching switching) {
  switch (switching) {
    case AggressorSwitching::same_direction:
      return tech::DriveEdge::rise;
    case AggressorSwitching::opposite:
      return tech::DriveEdge::fall;
    case AggressorSwitching::quiet:
      break;
  }
  return tech::DriveEdge::hold_low;
}

std::vector<tech::NetDrive> build_drives(const CoupledExperimentCase& c,
                                         bool victim_switches) {
  std::vector<tech::NetDrive> drives(c.group.size());
  for (std::size_t k = 0; k < c.group.size(); ++k) {
    tech::NetDrive& d = drives[k];
    if (k == c.victim) {
      d.cell = tech::Inverter{c.driver_size};
      d.input_slew = c.input_slew;
      d.edge = victim_switches ? tech::DriveEdge::rise : tech::DriveEdge::hold_low;
      continue;
    }
    const AggressorDrive aggressor =
        k < c.aggressors.size() ? c.aggressors[k] : AggressorDrive{};
    d.cell = tech::Inverter{aggressor.driver_size};
    d.input_slew = aggressor.input_slew;
    d.edge = edge_for(aggressor.switching);
  }
  return drives;
}

}  // namespace

double miller_factor(AggressorSwitching switching) {
  switch (switching) {
    case AggressorSwitching::same_direction:
      return 0.0;
    case AggressorSwitching::quiet:
      return 1.0;
    case AggressorSwitching::opposite:
      break;
  }
  return 2.0;
}

std::vector<double> miller_factors(const CoupledExperimentCase& scenario) {
  std::vector<double> factors(scenario.group.size(), 1.0);
  for (std::size_t k = 0; k < scenario.group.size(); ++k) {
    if (k == scenario.victim || k >= scenario.aggressors.size()) continue;
    factors[k] = miller_factor(scenario.aggressors[k].switching);
  }
  return factors;
}

CoupledExperimentResult run_coupled_experiment(const tech::Technology& technology,
                                               charlib::CellLibrary& library,
                                               const CoupledExperimentCase& scenario,
                                               const CoupledExperimentOptions& options) {
  ensure(!scenario.group.empty(), "run_coupled_experiment: empty group");
  ensure(scenario.victim < scenario.group.size(),
         "run_coupled_experiment: victim index out of range");

  CoupledExperimentResult out;
  out.scenario = scenario;

  const net::NetMetrics victim_metrics =
      scenario.group.net_at(scenario.victim).metrics();
  tech::DeckOptions deck = options.deck;
  deck.t_stop = auto_t_stop(scenario, options);
  // The reference, baseline and replay decks are only measured at their
  // edges unless waveforms are kept: end those runs at the last measured
  // crossing.  The noise deck runs `deck`, never stopped, since its peak
  // needs the whole window.
  deck.sim.edge_stop = {};
  tech::DeckOptions measured = deck;
  measured.sim.edge_stop.vdd = options.keep_waveforms ? 0.0 : technology.vdd;

  // Reference: the full coupled system, every net driven.
  {
    const std::vector<tech::NetDrive> drives = build_drives(scenario, true);
    tech::CoupledSimResult ref =
        tech::simulate_coupled_group(technology, drives, scenario.group, measured);
    tech::NetSimResult& victim = ref.nets[scenario.victim];
    out.input_time_50 = victim.input_time_50;
    out.solver = victim.solver;
    const wave::Waveform& far = victim.leaves.at(victim_metrics.dominant_leaf);
    out.ref_near = measure_edge(victim.near_end, technology.vdd, victim.input_time_50);
    out.ref_far = measure_edge(far, technology.vdd, victim.input_time_50);
    if (options.keep_waveforms) {
      out.ref_near_wave = std::move(victim.near_end);
      out.ref_far_wave = victim.leaves.at(victim_metrics.dominant_leaf);
    }
  }

  // Quiet-environment baseline: the victim alone with every coupling cap
  // grounded at 1x — the delay-pushout anchor.
  const net::Net quiet_net = scenario.group.decoupled_net(scenario.victim);
  {
    const tech::Inverter cell{scenario.driver_size};
    const tech::NetSimResult base = tech::simulate_driver_net(
        technology, cell, scenario.input_slew, quiet_net, measured);
    const wave::Waveform& far = base.leaves.at(victim_metrics.dominant_leaf);
    out.base_near = measure_edge(base.near_end, technology.vdd, base.input_time_50);
    out.base_far = measure_edge(far, technology.vdd, base.input_time_50);
    out.delay_pushout = out.ref_far.delay - out.base_far.delay;
  }

  // Noise view: victim held quiet, aggressors switching.
  if (options.include_noise) {
    const std::vector<tech::NetDrive> drives = build_drives(scenario, false);
    tech::CoupledSimResult noisy =
        tech::simulate_coupled_group(technology, drives, scenario.group, deck);
    const wave::Waveform& far =
        noisy.nets[scenario.victim].leaves.at(victim_metrics.dominant_leaf);
    ensure(far.size() > 0, "run_coupled_experiment: empty noise waveform");
    const double rest = far.value(0);
    double peak = 0.0;
    for (std::size_t k = 0; k < far.size(); ++k) {
      peak = std::max(peak, std::abs(far.value(k) - rest));
    }
    out.peak_noise = peak;
    if (options.keep_waveforms) out.noise_wave = far;
  }

  // Miller-decoupled model (the paper's flow on the single-net equivalent).
  const std::vector<double> factors = miller_factors(scenario);
  const net::Net miller_net =
      scenario.group.decoupled_net(scenario.victim, factors);
  const charlib::CharacterizedDriver& driver =
      library.ensure_driver(technology, scenario.driver_size, options.grid);
  out.model = model_driver_output(driver, scenario.input_slew, miller_net,
                                  options.model);
  out.model_near = measure_modeled_edge(out.model, technology.vdd);

  // Quiet-environment model for the pushout estimate.  When every factor is
  // 1 the Miller net *is* the quiet net: reuse the model instead of running
  // the Ceff flow a second time.
  const bool quiet_equals_miller =
      std::all_of(factors.begin(), factors.end(), [](double f) { return f == 1.0; });
  if (quiet_equals_miller) {
    out.model_base = out.model;
    out.model_base_near = out.model_near;
  } else {
    out.model_base = model_driver_output(driver, scenario.input_slew, quiet_net,
                                         options.model);
    out.model_base_near = measure_modeled_edge(out.model_base, technology.vdd);
  }
  out.delay_pushout_model = out.model_near.delay - out.model_base_near.delay;

  if (options.include_far_end) {
    // Replay the modeled waveform through the decoupled net.
    const tech::NetSimResult replay = tech::simulate_source_net(
        deck_time_source(out.model, out.input_time_50), miller_net, measured);
    const wave::Waveform& far = replay.leaves.at(victim_metrics.dominant_leaf);
    out.model_far = measure_edge(far, technology.vdd, out.input_time_50);
  }

  return out;
}

}  // namespace rlceff::core
