#include "core/experiment.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/stats.h"

namespace rlceff::core {

namespace {

// Sizes the horizon so even the slowest (weak driver, long line) case fully
// completes its 90 % crossing with margin.
double auto_t_stop(const ExperimentCase& c, const net::NetMetrics& metrics,
                   const tech::DeckOptions& deck) {
  return deck.t_start + c.input_slew +
         std::max(1e-9, settle_time(c.driver_size, metrics));
}

}  // namespace

double settle_time(double driver_size, const net::NetMetrics& metrics,
                   double extra_cap) {
  const double rs_estimate = 3.7e3 / driver_size;
  const double c_total =
      metrics.wire_capacitance + metrics.load_capacitance + extra_cap;
  return 6.0 * (rs_estimate + metrics.path_resistance) * c_total +
         4.0 * metrics.time_of_flight;
}

double pct_error(double model, double reference) {
  return 100.0 * util::relative_error(model, reference);
}

EdgeMetrics measure_edge(const wave::Waveform& w, double vdd, double t_reference) {
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50 - t_reference, e.transition_10_90()};
}

ExperimentResult run_experiment(const tech::Technology& technology,
                                charlib::CellLibrary& library,
                                const ExperimentCase& scenario,
                                const ExperimentOptions& options) {
  ExperimentResult out;
  out.scenario = scenario;

  const net::NetMetrics metrics = scenario.net.metrics();
  tech::DeckOptions deck = options.deck;
  deck.t_stop = auto_t_stop(scenario, metrics, options.deck);
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
  {
    const wave::Waveform w = out.model.waveform.to_waveform(
        out.model.waveform.end_time() + deck.t_stop);
    out.model_near = measure_edge(w, technology.vdd, 0.0);
  }

  if (options.include_far_end) {
    // Replay the modeled waveform through the net in absolute deck time.
    std::vector<std::pair<double, double>> pts = out.model.waveform.points();
    for (auto& [t, v] : pts) t += ref.input_time_50;
    // The source must start at 0 V from t = 0 for the DC operating point.
    if (pts.front().first > 0.0 && pts.front().second == 0.0) {
      // anchored waveforms always begin at 0 V; nothing to do
    }
    wave::Pwl absolute(std::move(pts));
    if (options.defer_far_end) {
      out.replay_deferred = true;
      out.replay_source = std::move(absolute);
      out.replay_t_stop = deck.t_stop;
      out.replay_dominant_leaf = metrics.dominant_leaf;
    } else {
      tech::NetSimResult replay =
          tech::simulate_source_net(absolute, scenario.net, deck);
      const wave::Waveform& replay_far = replay.leaves.at(metrics.dominant_leaf);
      out.model_far = measure_edge(replay_far, technology.vdd, ref.input_time_50);
      if (options.keep_waveforms) out.model_far_wave = replay_far;
    }
  }

  if (options.include_one_ramp) {
    DriverModelOptions one = options.model;
    one.selection = ModelSelection::force_one_ramp;
    // The paper's Table-1/Fig-7 baseline is a *pure* single ramp; keep the
    // ref-[11] tail out of the comparison column.
    one.shielding_tail = false;
    out.one_ramp =
        model_driver_output(driver, scenario.input_slew, scenario.net, one);
    const wave::Waveform w = out.one_ramp.waveform.to_waveform(
        out.one_ramp.waveform.end_time() + deck.t_stop);
    out.one_near = measure_edge(w, technology.vdd, 0.0);
  }

  if (options.keep_waveforms) {
    out.ref_near_wave = ref.near_end;
    out.ref_far_wave = ref_far;
  }
  return out;
}

}  // namespace rlceff::core
