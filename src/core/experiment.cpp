#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace rlceff::core {

double settle_time(double driver_size, const net::NetMetrics& metrics,
                   double extra_cap) {
  const double rs_estimate = 3.7e3 / driver_size;
  const double c_total =
      metrics.wire_capacitance + metrics.load_capacitance + extra_cap;
  return 6.0 * (rs_estimate + metrics.path_resistance) * c_total +
         4.0 * metrics.time_of_flight;
}

double settle_horizon(double t_start, double input_slew, double driver_size,
                      const net::NetMetrics& metrics, double extra_cap) {
  return t_start + input_slew +
         std::max(1e-9, settle_time(driver_size, metrics, extra_cap));
}

wave::Pwl deck_time_source(const DriverOutputModel& model, double input_time_50) {
  std::vector<std::pair<double, double>> pts = model.waveform.points();
  for (auto& [t, v] : pts) t += input_time_50;
  return wave::Pwl(std::move(pts));
}

double pct_error(double model, double reference) {
  return 100.0 * util::relative_error(model, reference);
}

EdgeMetrics measure_edge(const wave::Waveform& w, double vdd, double t_reference) {
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50 - t_reference, e.transition_10_90()};
}

EdgeMetrics measure_modeled_edge(const DriverOutputModel& model, double vdd) {
  // The PWL ends on its final value, so one flat sample past its last
  // breakpoint adds no crossing: every edge level is found before it.
  const wave::Waveform w = model.waveform.to_waveform(model.waveform.end_time() + 1e-12);
  return measure_edge(w, vdd, 0.0);
}

ExperimentResult run_experiment(const tech::Technology& technology,
                                charlib::CellLibrary& library,
                                const ExperimentCase& scenario,
                                const ExperimentOptions& options) {
  ExperimentResult out;
  out.scenario = scenario;

  const net::NetMetrics metrics = scenario.net.metrics();
  tech::DeckOptions deck = options.deck;
  deck.t_stop = settle_horizon(options.deck.t_start, scenario.input_slew,
                               scenario.driver_size, metrics);
  // Both decks are only measured at their edges unless their waveforms are
  // kept: end each run at its last measured crossing.  Kept waveforms run
  // the full horizon, whatever the incoming deck asked for.
  deck.sim.edge_stop.vdd = options.keep_waveforms ? 0.0 : technology.vdd;

  // Reference ("HSPICE") run; the "far end" is the dominant-path leaf.
  const tech::Inverter cell{scenario.driver_size};
  tech::NetSimResult ref = tech::simulate_driver_net(
      technology, cell, scenario.input_slew, scenario.net, deck);
  const wave::Waveform& ref_far = ref.leaves.at(metrics.dominant_leaf);
  out.input_time_50 = ref.input_time_50;
  out.solver = ref.solver;
  out.ref_near = measure_edge(ref.near_end, technology.vdd, ref.input_time_50);
  out.ref_far = measure_edge(ref_far, technology.vdd, ref.input_time_50);

  // Library model (the paper's flow).
  const charlib::CharacterizedDriver& driver =
      library.ensure_driver(technology, scenario.driver_size, options.grid);
  out.model =
      model_driver_output(driver, scenario.input_slew, scenario.net, options.model);
  out.model_near = measure_modeled_edge(out.model, technology.vdd);

  if (options.include_far_end) {
    // Replay the modeled waveform through the net.
    const tech::NetSimResult replay = tech::simulate_source_net(
        deck_time_source(out.model, ref.input_time_50), scenario.net, deck);
    const wave::Waveform& replay_far = replay.leaves.at(metrics.dominant_leaf);
    out.model_far = measure_edge(replay_far, technology.vdd, ref.input_time_50);
    if (options.keep_waveforms) out.model_far_wave = replay_far;
  }

  if (options.include_one_ramp) {
    DriverModelOptions one = options.model;
    one.selection = ModelSelection::force_one_ramp;
    // The paper's Table-1/Fig-7 baseline is a *pure* single ramp; keep the
    // ref-[11] tail out of the comparison column.
    one.shielding_tail = false;
    out.one_ramp =
        model_driver_output(driver, scenario.input_slew, scenario.net, one);
    out.one_near = measure_modeled_edge(out.one_ramp, technology.vdd);
  }

  if (options.keep_waveforms) {
    out.ref_near_wave = ref.near_end;
    out.ref_far_wave = ref_far;
  }
  return out;
}

}  // namespace rlceff::core
