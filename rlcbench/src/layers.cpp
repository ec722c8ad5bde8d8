// The traced run.  The workload's batch goes through run_batch once more for
// the served answers and slot times; then the same inputs are re-run through
// the layers' public functions, every call timed as a span from this file.
// The re-run mirrors what the Engine computed for each slot's served answer
// (flagged `served`) and checks that it reproduces every answered slot's
// answer bit for bit, so the spans account for the Engine's actual work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "bench.h"
#include "core/coupled_experiment.h"
#include "core/experiment.h"
#include "lint/lint.h"
#include "moments/admittance.h"
#include "moments/rational.h"
#include "sim/scenario_block.h"
#include "tech/testbench.h"
#include "tier/analytical.h"
#include "tier/router.h"
#include "trace.h"

namespace rlcbench {

using namespace rlceff;

namespace {

// Bulk fleets are traced on a prefix: enough calls per layer, and a trace
// file of a few megabytes.
constexpr std::size_t kTracedNets = 4096;
// Span slot ids of fig7 replay groups (scenario slots use their batch index).
constexpr std::uint64_t kGroupSlotBase = 1u << 20;

volatile double g_sink = 0.0;  // keeps diagnostic-only results alive

struct Counts {
  std::size_t fits = 0, unstable_fits = 0;
  std::size_t models = 0, nonconverged = 0;
  double ceff_iterations = 0.0;
  double reference_steps = 0.0;
  std::size_t scenarios = 0, groups = 0;
  double block_lane_steps = 0.0;
  // Answered slots; those the mirror re-derived and compared; those whose
  // bits differ; those it could not re-derive at all (a failure of the check).
  std::size_t answered = 0, compared = 0, mismatches = 0, unreproduced = 0;

  // Compares one re-derived edge with the served one, bit for bit.
  void compare(const core::EdgeMetrics& derived, const core::EdgeMetrics& served) {
    ++compared;
    if (!same_bits(derived.delay, served.delay) || !same_bits(derived.slew, served.slew)) {
      ++mismatches;
    }
  }
  // Closes one slot: an answered slot must have been compared.
  void close_slot(bool ok, bool derived) {
    if (!ok) return;
    ++answered;
    if (!derived) ++unreproduced;
  }
};

// What api::Engine does to read delay/slew off a modeled PWL.
core::EdgeMetrics measure_model(const core::DriverOutputModel& m, double vdd) {
  const wave::Waveform w = m.waveform.to_waveform(m.waveform.end_time() + 1e-12);
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50, e.transition_10_90()};
}

bool converged(const core::DriverOutputModel& m) {
  return m.ceff1.converged && (m.kind == core::ModelKind::one_ramp || m.ceff2.converged) &&
         (m.kind != core::ModelKind::three_ramp || m.ceff3.converged);
}

int iterations(const core::DriverOutputModel& m) {
  int n = m.ceff1.iterations;
  if (m.kind != core::ModelKind::one_ramp) n += m.ceff2.iterations;
  if (m.kind == core::ModelKind::three_ramp) n += m.ceff3.iterations;
  return n;
}

// The cell-table reads a slot makes: the library lookup, then delay and
// output transition at the net's total load.
const charlib::CharacterizedDriver& lookup(api::Engine& engine, const api::Request& r,
                                           double c_total, std::uint64_t slot, Tracer& tr) {
  Tracer::Scope s(tr, "charlib.lookup", slot);
  const charlib::CharacterizedDriver* driver = engine.library().find(r.cell_size);
  g_sink = driver->delay(r.input_slew, c_total) + driver->output_transition(r.input_slew, c_total);
  return *driver;
}

// The driving-point moments and the Eq 3 fit on them; counts fits that put a
// pole in the right half plane (or fail outright).
void moments_and_fit(const net::Net& net, std::uint64_t slot, Tracer& tr, Counts& c) {
  const util::Series series = [&] {
    Tracer::Scope s(tr, "moments.admittance", slot);
    return moments::net_admittance(net);
  }();
  ++c.fits;
  try {
    std::optional<moments::RationalAdmittance> fit;
    {
      Tracer::Scope s(tr, "moments.fit", slot);
      fit.emplace(series);
    }
    const auto poles = fit->poles();
    for (int k = 0; k < fit->pole_count(); ++k) {
      if (poles[static_cast<std::size_t>(k)].real() >= 0.0) {
        ++c.unstable_fits;
        return;
      }
    }
  } catch (const Error&) {
    ++c.unstable_fits;
  }
}

// The Engine's admission-screen lint call (api/engine.cpp run_lint).
std::size_t run_lint(const api::Request& r, const tech::Technology& technology) {
  lint::Options checks = r.lint.checks;
  if (!(checks.driver_resistance > 0.0)) {
    checks.driver_resistance = lint::estimate_driver_resistance(technology, r.cell_size);
  }
  if (!(checks.input_slew > 0.0)) checks.input_slew = r.input_slew;
  if (checks.tier_policy == tier::TierPolicy::reference) checks.tier_policy = r.tier;
  const lint::Report report =
      r.coupled() ? lint::lint_group(r.group, checks) : lint::lint_net(r.net, checks);
  return report.diagnostics.size();
}

tech::DriveEdge edge_for(core::AggressorSwitching switching) {
  switch (switching) {
    case core::AggressorSwitching::same_direction: return tech::DriveEdge::rise;
    case core::AggressorSwitching::opposite: return tech::DriveEdge::fall;
    case core::AggressorSwitching::quiet: break;
  }
  return tech::DriveEdge::hold_low;
}

// The transient Tier C starts with: the driver into the net (single nets)
// or every driver into the coupled group, over the horizon
// core::run_experiment / run_coupled_experiment size.  Returns time steps.
std::size_t reference_transient(const tech::Technology& technology, const api::Request& r,
                                const api::BatchOptions& options) {
  tech::DeckOptions deck = options.deck;
  deck.sim.solver = r.solver;
  if (!r.coupled()) {
    deck.t_stop = deck.t_start + r.input_slew +
                  std::max(1e-9, core::settle_time(r.cell_size, r.net.metrics()));
    const tech::NetSimResult sim = tech::simulate_driver_net(
        technology, tech::Inverter{r.cell_size}, r.input_slew, r.net, deck);
    return sim.near_end.size() - 1;
  }
  std::vector<tech::NetDrive> drives(r.group.size());
  deck.t_stop = 0.0;
  for (std::size_t k = 0; k < r.group.size(); ++k) {
    core::AggressorDrive drive;  // unnamed nets: core defaults, held quiet
    if (k == r.victim) drive = {r.cell_size, r.input_slew, core::AggressorSwitching::quiet};
    for (const api::Aggressor& a : r.aggressors) {
      if (a.net == k) drive = {a.cell_size, a.input_slew, a.switching};
    }
    drives[k].cell = tech::Inverter{drive.driver_size};
    drives[k].input_slew = drive.input_slew;
    drives[k].edge = k == r.victim ? tech::DriveEdge::rise : edge_for(drive.switching);
    const double settle = core::settle_time(drive.driver_size, r.group.net_at(k).metrics(),
                                            r.group.coupling_capacitance_at(k));
    deck.t_stop = std::max(deck.t_stop,
                           deck.t_start + drive.input_slew + std::max(1e-9, settle));
  }
  const tech::CoupledSimResult sim =
      tech::simulate_coupled_group(technology, drives, r.group, deck);
  return sim.nets[r.victim].near_end.size() - 1;
}

// What Tier C serves: the experiment harness the Engine runs with the
// reference flag set (api/engine.cpp model_or_throw), with its deck, grid,
// model options and far-end / noise / one-ramp switches.  Returns the
// near-end reference edge and the near-end model edge.
std::pair<core::EdgeMetrics, core::EdgeMetrics> reference_experiment(
    api::Engine& engine, const api::BatchOptions& options, const api::Request& r,
    const core::DriverModelOptions& model) {
  tech::DeckOptions deck = options.deck;
  deck.sim.solver = r.solver;
  if (r.coupled()) {
    core::CoupledExperimentCase scenario;
    scenario.label = r.label;
    scenario.group = r.group;
    scenario.victim = r.victim;
    scenario.driver_size = r.cell_size;
    scenario.input_slew = r.input_slew;
    core::AggressorDrive unnamed;  // core defaults, held quiet
    unnamed.switching = core::AggressorSwitching::quiet;
    scenario.aggressors.assign(r.group.size(), unnamed);
    for (const api::Aggressor& a : r.aggressors) {
      scenario.aggressors[a.net] = {a.cell_size, a.input_slew, a.switching};
    }
    core::CoupledExperimentOptions opt;
    opt.deck = deck;
    opt.grid = options.grid;
    opt.model = model;
    opt.include_far_end = r.far_end;
    opt.include_noise = r.noise;
    opt.keep_waveforms = r.keep_waveforms;
    const core::CoupledExperimentResult out =
        core::run_coupled_experiment(engine.technology(), engine.library(), scenario, opt);
    return {out.ref_near, out.model_near};
  }
  core::ExperimentCase scenario;
  scenario.label = r.label;
  scenario.driver_size = r.cell_size;
  scenario.input_slew = r.input_slew;
  scenario.net = r.net;
  core::ExperimentOptions opt;
  opt.deck = deck;
  opt.grid = options.grid;
  opt.model = model;
  opt.include_far_end = r.far_end;
  opt.include_one_ramp = r.one_ramp_baseline;
  opt.keep_waveforms = r.keep_waveforms;
  const core::ExperimentResult out =
      core::run_experiment(engine.technology(), engine.library(), scenario, opt);
  return {out.ref_near, out.model_near};
}

// One fleet slot: every layer the tiered Engine path touches, on the slot's
// (Miller-decoupled, for coupled victims) net.
void fleet_slot(api::Engine& engine, const api::BatchOptions& options, const api::Request& r,
                const api::Outcome<api::Response>& o, std::uint64_t slot, Tracer& tr,
                Counts& c) {
  const tech::Technology& technology = engine.technology();
  const double vdd = technology.vdd;
  const bool ok = o.ok();
  const api::Fidelity fidelity = ok ? o.value().fidelity : api::Fidelity::reference;
  const bool served_a = ok && fidelity == api::Fidelity::analytical;
  const bool served_b = ok && fidelity == api::Fidelity::ceff_model;
  const bool served_floor = ok && fidelity == api::Fidelity::moments_only;
  const bool served_c = ok && fidelity == api::Fidelity::reference;
  bool derived = false;  // the served answer was re-derived and compared
  Tracer::Scope slot_span(tr, "slot", slot);

  if (r.lint.screen) {
    Tracer::Scope s(tr, "lint.screen", slot);
    g_sink = static_cast<double>(run_lint(r, technology));
  }

  // Coupled victims are modeled on their Miller-decoupled net; non-quiet
  // aggressors add the quiet-environment net for the pushout baseline.
  net::Net miller, quiet;
  const net::Net* net = &r.net;
  bool all_quiet = true;
  if (r.coupled()) {
    Tracer::Scope s(tr, "api.decouple", slot, ok);
    std::vector<double> factors(r.group.size(), 1.0);
    for (const api::Aggressor& a : r.aggressors) factors[a.net] = core::miller_factor(a.switching);
    all_quiet = std::all_of(factors.begin(), factors.end(), [](double f) { return f == 1.0; });
    miller = r.group.decoupled_net(r.victim, factors);
    if (!all_quiet) quiet = r.group.decoupled_net(r.victim);
    net = &miller;
  }
  const bool with_base = r.coupled() && !all_quiet;
  const double c_total = net->total_capacitance();

  const charlib::CharacterizedDriver& driver = lookup(engine, r, c_total, slot, tr);
  {
    Tracer::Scope s(tr, "moments.fast_admittance", slot);
    g_sink = moments::fast_net_admittance(*net)[1];
  }
  moments_and_fit(*net, slot, tr, c);

  // Tier A: the topology screen, the closed form, the estimate screen.
  bool a_admitted = false;
  if (r.tier != tier::TierPolicy::reference) {
    tier::Admission admission;
    if (r.coupled()) {
      Tracer::Scope s(tr, "tier.admit", slot);
      admission = tier::admit_group_analytical(r.group, r.victim);
    }
    if (admission.ok) {
      std::optional<tier::AnalyticalEstimate> estimate;
      try {
        Tracer::Scope s(tr, "tier.analytical", slot, served_a);
        estimate = tier::analytical_estimate(driver, r.input_slew, *net);
      } catch (const Error&) {
      }
      if (estimate) {
        Tracer::Scope s(tr, "tier.admit", slot);
        a_admitted = tier::admit_analytical(*estimate).ok;
      }
      if (served_a && estimate) {
        if (with_base) {
          Tracer::Scope s(tr, "tier.analytical", slot, true);
          g_sink = tier::analytical_estimate(driver, r.input_slew, quiet).delay;
        }
        if (r.coupled()) {
          Tracer::Scope s(tr, "tier.noise_bound", slot, true);
          g_sink = tier::noise_bound(r.group, r.victim, vdd);
        }
        c.compare({estimate->delay, estimate->slew_10_90}, o.value().model_near);
        derived = true;
      }
    }
  }

  // Tier B: the paper's Ceff flow.  A slot rescued by the damped retry was
  // served by the damped fixed point.
  core::DriverModelOptions model_options = r.model;
  if ((served_b || served_c) && !o.value().attempts.empty()) {
    model_options.iteration.damping = r.degrade.retry_damping;
  }
  std::optional<core::DriverOutputModel> model;
  bool b_convergence_failure = false;
  try {
    Tracer::Scope s(tr, "core.model", slot, served_b);
    model = core::model_driver_output(driver, r.input_slew, *net, model_options);
  } catch (const ConvergenceError&) {
    b_convergence_failure = true;
  } catch (const Error&) {
  }
  if (model) {
    ++c.models;
    c.ceff_iterations += iterations(*model);
    if (!converged(*model)) {
      ++c.nonconverged;
      b_convergence_failure = true;
    }
  }
  // The quiet-environment baseline of a victim with switching aggressors:
  // the Engine fails (and under balanced escalates) the slot when it does
  // not converge either.
  if (model && with_base) {
    try {
      Tracer::Scope s(tr, "core.model", slot, served_b);
      const core::DriverOutputModel base =
          core::model_driver_output(driver, r.input_slew, quiet, model_options);
      g_sink = measure_model(base, vdd).delay;
      if (!converged(base)) b_convergence_failure = true;
    } catch (const Error&) {
    }
  }
  if (served_b && model) {
    core::EdgeMetrics near;
    {
      Tracer::Scope s(tr, "core.measure", slot, true);
      near = measure_model(*model, vdd);
    }
    c.compare(near, o.value().model_near);
    derived = true;
  }

  // Tier C: under balanced, a Tier-B fixed point that does not converge
  // escalates to the transient (and so does every slot Tier C served).  The
  // bare transient is a diagnostic span; a slot Tier C served re-runs the
  // served experiment in full.
  const bool reached_c = served_c || (r.tier == tier::TierPolicy::balanced && !a_admitted &&
                                      b_convergence_failure);
  if (reached_c) {
    Tracer::Scope s(tr, "sim.reference", slot);
    c.reference_steps += static_cast<double>(reference_transient(technology, r, options));
  }
  if (served_c) {
    std::pair<core::EdgeMetrics, core::EdgeMetrics> edges;
    {
      Tracer::Scope s(tr, "tier.reference", slot, true);
      edges = reference_experiment(engine, options, r, model_options);
    }
    c.compare(edges.first, o.value().ref_near);
    c.compare(edges.second, o.value().model_near);
    derived = true;
  }

  // The degrade ladder's floor.
  if (served_floor) {
    core::EdgeMetrics near;
    {
      Tracer::Scope s(tr, "core.moments_only", slot, true);
      near = measure_model(
          core::estimate_driver_output_moments_only(driver, r.input_slew, *net), vdd);
    }
    if (with_base) {
      Tracer::Scope s(tr, "core.moments_only", slot, true);
      g_sink = measure_model(core::estimate_driver_output_moments_only(
                                 driver, r.input_slew, quiet), vdd).delay;
    }
    c.compare(near, o.value().model_near);
    derived = true;
  }
  c.close_slot(ok, derived);
}

// fig7_replay: the model flow per scenario, then the Engine's deferred
// replay machinery — deck compile, equal-topology grouping, one
// shared-factorization block per group, far-end measurement.
void replay_pass(api::Engine& engine, const api::BatchOptions& options,
                 const std::vector<api::Request>& requests,
                 const std::vector<api::Outcome<api::Response>>& outcomes, Tracer& tr,
                 Counts& c) {
  const double vdd = engine.technology().vdd;
  const std::size_t n = requests.size();
  std::vector<tech::SourceNetDeck> decks(n);
  std::vector<sim::TransientOptions> sim_options(n);
  std::vector<double> input_time_50(n, 0.0);
  std::vector<std::size_t> leaf(n, 0);
  std::vector<std::size_t> live;
  std::vector<bool> derived(n, false);  // far-end answer re-derived and compared

  for (std::size_t i = 0; i < n; ++i) {
    const api::Request& r = requests[i];
    Tracer::Scope slot_span(tr, "slot", i);
    const double c_total = r.net.total_capacitance();
    const charlib::CharacterizedDriver& driver = lookup(engine, r, c_total, i, tr);
    moments_and_fit(r.net, i, tr, c);
    std::optional<core::DriverOutputModel> model;
    try {
      Tracer::Scope s(tr, "core.model", i, true);
      model = core::model_driver_output(driver, r.input_slew, r.net, r.model);
    } catch (const Error&) {
    }
    if (!model) continue;
    ++c.models;
    c.ceff_iterations += iterations(*model);
    if (!converged(*model)) ++c.nonconverged;
    core::EdgeMetrics near;
    {
      Tracer::Scope s(tr, "core.measure", i, true);
      near = measure_model(*model, vdd);
    }
    if (outcomes[i].ok()) c.compare(near, outcomes[i].value().model_near);

    // The replay plan of api/engine.cpp plan_far_end_replay.
    tech::DeckOptions deck = options.deck;
    wave::Pwl source;
    {
      Tracer::Scope s(tr, "api.plan_replay", i, true);
      const net::NetMetrics metrics = r.net.metrics();
      input_time_50[i] = options.deck.t_start + 0.5 * r.input_slew;
      deck.t_stop = options.deck.t_start + r.input_slew +
                    std::max(1e-9, core::settle_time(r.cell_size, metrics));
      deck.sim.budget = nullptr;
      deck.sim.solver = r.solver;
      leaf[i] = metrics.dominant_leaf;
      std::vector<std::pair<double, double>> pts = model->waveform.points();
      for (auto& [t, v] : pts) t += input_time_50[i];
      source = wave::Pwl(std::move(pts));
    }
    {
      Tracer::Scope s(tr, "tech.compile", i, true);
      decks[i] = tech::compile_source_net(source, r.net, deck);
      sim_options[i] = tech::sim_options(deck);
      sim_options[i].budget = nullptr;
    }
    live.push_back(i);
  }

  // Grouping: structural hash, confirmed by the exhaustive compares.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i : live) {
    Tracer::Scope s(tr, "sim.group", i, true);
    const std::uint64_t hash = sim::scenario_group_hash(decks[i].netlist, sim_options[i]);
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      const std::size_t head = group.front();
      if (sim::scenario_group_hash(decks[head].netlist, sim_options[head]) != hash) continue;
      if (!sim::scenario_group_equal(decks[head].netlist, decks[i].netlist)) continue;
      if (!sim::scenario_options_equal(sim_options[head], sim_options[i])) continue;
      if (decks[head].probes != decks[i].probes) continue;
      group.push_back(i);
      placed = true;
      break;
    }
    if (!placed) groups.push_back({i});
  }
  c.scenarios += live.size();
  c.groups += groups.size();

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<std::size_t>& members = groups[g];
    const std::size_t head = members.front();
    std::vector<std::optional<sim::TransientResult>> results;
    if (members.size() > 1) {
      std::vector<sim::BlockScenario> lanes;
      for (std::size_t i : members) {
        lanes.push_back({&decks[i].netlist, sim_options[i].t_stop, nullptr});
      }
      Tracer::Scope s(tr, "sim.block", kGroupSlotBase + g, true);
      for (sim::BlockOutcome& outcome :
           sim::simulate_block(lanes, sim_options[head], decks[head].probes)) {
        results.push_back(std::move(outcome.result));
      }
    } else {
      Tracer::Scope s(tr, "sim.scalar", kGroupSlotBase + g, true);
      results.push_back(
          sim::simulate(decks[head].netlist, sim_options[head], decks[head].probes));
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t i = members[k];
      if (!results[k]) continue;
      const wave::Waveform& far = results[k]->at(decks[i].nodes.leaves.at(leaf[i]));
      if (members.size() > 1) c.block_lane_steps += static_cast<double>(far.size() - 1);
      core::EdgeMetrics model_far;
      {
        Tracer::Scope s(tr, "core.measure", i, true);
        model_far = core::measure_edge(far, vdd, input_time_50[i]);
      }
      if (!outcomes[i].ok()) {
        ++c.mismatches;  // the mirror answered a slot the Engine failed
        continue;
      }
      c.compare(model_far, outcomes[i].value().model_far);
      derived[i] = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) c.close_slot(outcomes[i].ok(), derived[i]);
}

}  // namespace

Result run_traced(const Config& config) {
  Result result;
  Tracer tracer;
  std::unique_ptr<api::Engine> engine = cold_engine(cell_sizes(config.kind));
  const Workload w = make_workload(config.kind, config.seed, config.smoke);
  const std::vector<api::Request> requests(
      w.batch.begin(),
      w.batch.begin() + static_cast<std::ptrdiff_t>(
                            w.kind == Kind::bulk_fastest ? std::min(w.batch.size(), kTracedNets)
                                                         : w.batch.size()));

  // Cold characterization of every cell, one worker, one span per cell.
  tracer.set_enabled(true);
  for (std::size_t k = 0; k < w.cell_sizes.size(); ++k) {
    Tracer::Scope s(tracer, "charlib.characterize", k);
    charlib::CharacterizedDriver driver = charlib::characterize_driver(
        engine->technology(), tech::Inverter{w.cell_sizes[k]}, one_worker_grid());
    g_sink = driver.vdd();
  }
  tracer.set_enabled(false);

  // Rounds of: run_batch (the served answers and their wall time), the
  // layer pass with the recorder off, and the layer pass with it on.  Three
  // rounds, five when a batch is short; every figure is a median over rounds.
  (void)engine->run_batch(w.warmup, w.options);
  std::vector<api::Outcome<api::Response>> outcomes;
  std::vector<double> walls, slot_sums, untraced, traced;
  std::vector<std::pair<std::size_t, std::size_t>> traced_spans;  // each traced pass's spans
  Counts counts;
  std::size_t last_round = 0;  // index of the last round's first span
  auto pass = [&](bool record) {
    counts = Counts{};
    tracer.set_enabled(record);
    const auto t0 = Clock::now();
    if (w.kind == Kind::fig7_replay) {
      replay_pass(*engine, w.options, requests, outcomes, tracer, counts);
    } else {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        fleet_slot(*engine, w.options, requests[i], outcomes[i], i, tracer, counts);
      }
    }
    tracer.set_enabled(false);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::size_t rounds = 3;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto t0 = Clock::now();
    outcomes = engine->run_batch(requests, w.options);
    walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (walls.front() < 1.0) rounds = 5;
    double slot_sum = 0.0;
    for (const auto& o : outcomes) slot_sum += o.ok() ? o.value().elapsed_s : o.error().elapsed_s;
    slot_sums.push_back(slot_sum);
    untraced.push_back(pass(false));
    last_round = tracer.spans().size();
    traced.push_back(pass(true));
    traced_spans.emplace_back(last_round, tracer.spans().size());
  }
  const double wall_s = median(walls);
  const double elapsed_s = median(slot_sums);
  const double clock_ns = tracer.calibrate_clock_ns();

  // ---- per-layer metrics from the spans and the served Responses.
  const std::map<std::string, Tracer::Totals> totals = tracer.totals();
  auto stat = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  auto ns_per_call = [&](const char* name) {
    const Tracer::Totals t = stat(name);
    if (t.count == 0) return 0.0;
    return std::max(0.0, t.total_ns / static_cast<double>(t.count) - clock_ns);
  };
  // Served work per round: the served spans of a traced pass net of their
  // clock reads, scaled from the traced pass's speed to the untraced pass's
  // (the recorder's bookkeeping slows the spans it surrounds too).
  std::vector<double> served_per_round;
  for (const auto& [from, to] : traced_spans) {
    const Tracer::Totals s = tracer.served(from, to);
    served_per_round.push_back(
        1e-9 * std::max(0.0, s.total_ns - clock_ns * static_cast<double>(s.count)));
  }
  const double served_s = median(served_per_round) * median(untraced) / median(traced);

  std::size_t answered = 0, tier_a = 0, tier_c = 0, escalations = 0, attempts = 0;
  for (const auto& o : outcomes) {
    ++result.attempted;
    if (!o.ok()) {
      if (o.error().code == api::ErrorCode::internal_error) ++result.failed;
      continue;
    }
    const api::Response& r = o.value();
    ++answered;
    tier_a += r.tier == tier::Tier::analytical ? 1 : 0;
    tier_c += r.tier == tier::Tier::reference ? 1 : 0;
    escalations += r.tier_escalations;
    attempts += r.attempts.size();
    if (!sane_answer(r)) ++result.failed;
  }
  const double per_answer = answered ? 1.0 / static_cast<double>(answered) : 0.0;
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const Tracer::Totals reference = stat("sim.reference");
  const Tracer::Totals block = stat("sim.block");

  if (counts.mismatches != 0) {
    result.problems.push_back(std::to_string(counts.mismatches) +
                              " served answers not reproduced bitwise by the layer calls");
  }
  if (counts.unreproduced != 0) {
    result.problems.push_back(std::to_string(counts.unreproduced) +
                              " answered slots the layer calls did not re-derive");
  }

  result.metrics = {
      {"api.overhead_fraction", ratio(wall_s - served_s, wall_s), "fraction"},
      {"api.wasted_fraction", ratio(elapsed_s - served_s, elapsed_s), "fraction"},
      {"api.retries_per_net", ratio(static_cast<double>(attempts), static_cast<double>(result.attempted)), "count"},
      {"lint.screen_ns_per_net", ns_per_call("lint.screen"), "ns"},
      {"charlib.characterize_s_per_cell", 1e-9 * ns_per_call("charlib.characterize"), "s"},
      {"charlib.lookup_ns_per_call", ns_per_call("charlib.lookup"), "ns"},
      {"tier.analytical_ns_per_call", ns_per_call("tier.analytical"), "ns"},
      {"tier.admit_ns_per_call", ns_per_call("tier.admit"), "ns"},
      {"tier.a_hit_rate", static_cast<double>(tier_a) * per_answer, "fraction"},
      {"tier.c_hit_rate", static_cast<double>(tier_c) * per_answer, "fraction"},
      {"tier.escalations_per_net", static_cast<double>(escalations) * per_answer, "count"},
      {"moments.fast_admittance_ns_per_call", ns_per_call("moments.fast_admittance"), "ns"},
      {"moments.admittance_ns_per_call", ns_per_call("moments.admittance"), "ns"},
      {"moments.fit_ns_per_call", ns_per_call("moments.fit"), "ns"},
      {"moments.unstable_fit_fraction", ratio(static_cast<double>(counts.unstable_fits), static_cast<double>(counts.fits)), "fraction"},
      {"core.model_ns_per_call", ns_per_call("core.model"), "ns"},
      {"core.ceff_iterations_per_call", ratio(counts.ceff_iterations, static_cast<double>(counts.models)), "count"},
      {"core.nonconverged_fraction", ratio(static_cast<double>(counts.nonconverged), static_cast<double>(counts.models)), "fraction"},
      {"sim.reference_s_per_net", 1e-9 * ratio(reference.total_ns, static_cast<double>(reference.count)), "s"},
      {"sim.reference_ns_per_step", ratio(reference.total_ns, counts.reference_steps), "ns"},
      {"tech.compile_ns_per_deck", ns_per_call("tech.compile"), "ns"},
      {"sim.group_ns_per_scenario", ns_per_call("sim.group"), "ns"},
      {"sim.lanes_per_group", ratio(static_cast<double>(counts.scenarios), static_cast<double>(counts.groups)), "count"},
      {"sim.block_ns_per_lane_step", ratio(block.total_ns, counts.block_lane_steps), "ns"},
      {"trace.overhead_fraction", median(traced) / median(untraced) - 1.0, "fraction"},
  };

  std::printf("rlcbench %s seed=%llu traced: %zu slots, %zu rounds; medians: run_batch "
              "%.4f s, layer pass %.4f s untraced / %.4f s traced; clock %.1f ns per span\n",
              to_string(w.kind), static_cast<unsigned long long>(config.seed),
              requests.size(), rounds, wall_s, median(untraced), median(traced), clock_ns);
  std::printf("  answered slots %zu, not re-derived %zu; answers compared %zu, bitwise "
              "mismatches %zu\n",
              counts.answered, counts.unreproduced, counts.compared, counts.mismatches);
  std::printf("  %-28s %10s %14s %14s   (all rounds)\n", "span", "count", "mean ns",
              "self ns");
  for (const auto& [name, t] : totals) {
    std::printf("  %-28s %10zu %14.1f %14.1f\n", name.c_str(), t.count,
                t.total_ns / static_cast<double>(t.count),
                t.self_ns / static_cast<double>(t.count));
  }
  if (!config.trace_dir.empty()) {
    const std::string path = config.trace_dir + "/" + to_string(w.kind) + ".trace.json";
    tracer.write_chrome_json(path, last_round);
    std::printf("  spans of the last round written to %s\n", path.c_str());
  }
  return result;
}

}  // namespace rlcbench
