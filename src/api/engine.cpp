#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "core/coupled_experiment.h"
#include "core/experiment.h"
#include "sim/scenario_block.h"
#include "sim/sweep.h"
#include "tier/analytical.h"
#include "tier/router.h"
#include "waveform/waveform.h"

namespace rlceff::api {

// The replay deck a model-only far_end_replay slot runs: the modeled PWL in
// absolute deck time, the reference harness's horizon, and the dominant-path
// leaf to measure.  Unless the slot keeps the waveform, the deck ends at its
// last measured crossing (sim::EdgeStop).
struct ReplayPlan {
  wave::Pwl source;         // modeled PWL in absolute deck time
  tech::DeckOptions deck;   // t_stop sized; sim.solver set; budget unset
  std::size_t dominant_leaf = 0;
  double input_time_50 = 0.0;
};

// One deferred far-end replay: an answered slot's plan, run after the sweep
// on the tracker its pass armed, so the replay keeps charging the slot's
// budget.
struct ReplayJob {
  std::size_t slot = 0;
  util::ExecTracker* tracker = nullptr;
  ReplayPlan plan;
};

namespace {

void validate(const Request& r) {
  auto reject = [&](const std::string& why) {
    throw InvalidRequestError("api::Engine: request '" + r.label + "': " + why);
  };
  if (!(r.cell_size > 0.0)) reject("cell size must be positive");
  if (!(r.input_slew > 0.0)) reject("input slew must be positive");
  if (r.coupled()) {
    if (!r.net.empty()) reject("both net and coupled group set");
    if (r.victim >= r.group.size()) {
      reject("victim index " + std::to_string(r.victim) + " out of range (group has " +
             std::to_string(r.group.size()) + " nets)");
    }
    std::vector<bool> seen(r.group.size(), false);
    for (const Aggressor& a : r.aggressors) {
      if (a.net >= r.group.size()) {
        reject("aggressor net index " + std::to_string(a.net) + " out of range");
      }
      if (a.net == r.victim) reject("the victim cannot be its own aggressor");
      if (seen[a.net]) {
        reject("duplicate aggressor for net '" + r.group.label_at(a.net) + "'");
      }
      seen[a.net] = true;
      if (!(a.cell_size > 0.0)) reject("aggressor cell size must be positive");
      if (!(a.input_slew > 0.0)) reject("aggressor input slew must be positive");
    }
  } else {
    if (!r.aggressors.empty()) reject("aggressors without a coupled group");
    if (r.net.empty()) reject("net is empty");
  }
  if (!r.reference && r.one_ramp_baseline) {
    reject("one_ramp_baseline needs the reference simulation");
  }
  if (!r.reference && !r.far_end_replay && r.keep_waveforms) {
    reject("keep_waveforms needs the reference simulation or far_end_replay");
  }
  if (r.far_end_replay) {
    if (r.coupled()) reject("far_end_replay is a single-net replay");
    if (r.reference) {
      reject("far_end_replay is redundant with the reference simulation "
             "(which already replays the far end)");
    }
    if (r.tier != tier::TierPolicy::reference) {
      reject("far_end_replay is incompatible with a tier policy");
    }
  }
  if (r.coupled() && r.one_ramp_baseline) {
    reject("the one-ramp baseline is a single-net comparison column");
  }
  if (r.tier != tier::TierPolicy::reference && r.reference) {
    reject("the reference flag is incompatible with a tier policy; use "
           "TierPolicy::force_reference to pin Tier C");
  }
}

// Admits a request: validation, then its static-diagnostics pass
// (Request::lint).  The screen rejects statically-broken work before any
// characterization lookup or solve; the report's findings are returned for
// the Response, whichever rung ends up answering.  lint_rejected is
// deliberately not on the degradable-code list: a screened-out request is
// wrong input, and retrying or degrading it would just re-lint the same net.
// The Eq 9 driver context defaults from the request itself: a static
// Thevenin Rs from the cell size and the input slew standing in for the
// converged first-ramp time.  Only the model pass reads it, so the
// structural-only screen skips the estimate.
std::vector<lint::Diagnostic> admit(const Request& request,
                                    const tech::Technology& technology) {
  validate(request);
  if (!request.lint.screen && !request.lint.report) return {};
  lint::Options checks = request.lint.checks;
  if (checks.model && !(checks.driver_resistance > 0.0)) {
    checks.driver_resistance =
        lint::estimate_driver_resistance(technology, request.cell_size);
  }
  if (!(checks.input_slew > 0.0)) checks.input_slew = request.input_slew;
  if (checks.tier_policy == tier::TierPolicy::reference) {
    checks.tier_policy = request.tier;
  }
  lint::Report report = request.coupled() ? lint::lint_group(request.group, checks)
                                          : lint::lint_net(request.net, checks);
  if (request.lint.screen && !report.diagnostics.empty() &&
      report.worst() >= request.lint.fail_at) {
    std::size_t gating = 0;
    std::string first;
    for (const lint::Diagnostic& d : report.diagnostics) {
      if (d.severity < request.lint.fail_at) continue;
      if (gating++ == 0) first = lint::format(d);
    }
    throw LintRejectedError(
        "api::Engine: request '" + request.label + "': rejected by the lint "
        "screen (" + std::to_string(gating) + " finding(s) at or above " +
        lint::to_string(request.lint.fail_at) + "): " + first,
        std::move(report.diagnostics));
  }
  if (!request.lint.report) return {};
  return std::move(report.diagnostics);
}

// Maps a coupled api::Request onto the core experiment case: the aggressor
// list (indexed by group net, victim slot ignored) defaults every unnamed
// net to a quiet neighbor.
core::CoupledExperimentCase coupled_case(const Request& r) {
  core::CoupledExperimentCase scenario;
  scenario.label = r.label;
  scenario.group = r.group;
  scenario.victim = r.victim;
  scenario.driver_size = r.cell_size;
  scenario.input_slew = r.input_slew;
  core::AggressorDrive unnamed;  // core defaults, held quiet
  unnamed.switching = core::AggressorSwitching::quiet;
  scenario.aggressors.assign(r.group.size(), unnamed);
  for (const Aggressor& a : r.aggressors) {
    scenario.aggressors[a.net] = {a.cell_size, a.input_slew, a.switching};
  }
  return scenario;
}

// The Ceff iterations report non-convergence via their converged flags; with
// the convergence gate on, the service boundary promotes that to a failure
// so a silently-unconverged model cannot masquerade as a timing number.
void check_convergence(const std::string& label, bool gate,
                       const core::DriverOutputModel& m) {
  if (!gate) return;
  auto require = [&](const core::CeffIteration& it, const char* which) {
    if (!it.converged) {
      throw ConvergenceError("api::Engine: request '" + label + "': " + which +
                             " iteration did not converge within " +
                             std::to_string(it.iterations) + " iterations");
    }
  };
  require(m.ceff1, "Ceff1");
  if (m.kind != core::ModelKind::one_ramp) require(m.ceff2, "Ceff2");
  if (m.kind == core::ModelKind::three_ramp) require(m.ceff3, "Ceff3");
}

struct NoBaseCheck {
  template <class T>
  void operator()(const T&) const {}
};

// The net a model rung (Tier A, Tier B, the floor) serves, estimated: the
// request's own net, or a coupled victim's Miller-decoupled net, each
// aggressor's coupling scaled by its Miller factor (nets without an
// aggressor entry stay quiet at 1x).
template <class Estimate>
auto estimate_served_net(const Request& request, Estimate estimate) {
  if (!request.coupled()) return estimate(request.net);
  std::vector<double> factors(request.group.size(), 1.0);
  for (const Aggressor& a : request.aggressors) {
    factors[a.net] = core::miller_factor(a.switching);
  }
  return estimate(request.group.decoupled_net(request.victim, factors));
}

// Stores `measure` of the served net's estimate in response.model_near.  For
// a coupled victim it also sets the modeled delay pushout against the
// quiet-environment net.  With all-quiet aggressors the Miller net is the
// quiet net: the pushout is exactly zero and the second run is skipped.
// `check_base` sees the quiet-net estimate before its delay is read.
template <class Served, class Estimate, class Measure, class CheckBase = NoBaseCheck>
void measure_served_net(const Request& request, Response& response, const Served& served,
                        Estimate estimate, Measure measure, CheckBase check_base = {}) {
  response.model_near = measure(served);
  if (!request.coupled()) return;
  response.has_coupling = true;
  // validate() rejects duplicate and out-of-range aggressors, so these are
  // exactly the nets whose Miller factor differs from 1.
  const bool all_quiet =
      std::all_of(request.aggressors.begin(), request.aggressors.end(),
                  [](const Aggressor& a) { return core::miller_factor(a.switching) == 1.0; });
  if (all_quiet) return;
  const auto base = estimate(request.group.decoupled_net(request.victim));
  check_base(base);
  response.delay_pushout_model = response.model_near.delay - measure(base).delay;
}

// Tier A's estimate of the served net: everything admission reads.
tier::AnalyticalEstimate analytical_served(const Request& request,
                                           const charlib::CharacterizedDriver& driver) {
  return estimate_served_net(request, [&](const net::Net& net) {
    return tier::analytical_estimate(driver, request.input_slew, net);
  });
}

ReplayPlan plan_far_end_replay(const Request& request, const BatchOptions& options,
                               const core::DriverOutputModel& model, double vdd) {
  const net::NetMetrics metrics = request.net.metrics();
  ReplayPlan plan;
  // The model's t = 0 is the input's 50 % crossing, t_start + slew/2 for the
  // testbench's saturated ramp input.
  plan.input_time_50 = options.deck.t_start + 0.5 * request.input_slew;
  plan.deck = options.deck;
  plan.deck.t_stop = core::settle_horizon(options.deck.t_start, request.input_slew,
                                          request.cell_size, metrics);
  plan.deck.sim.budget = nullptr;
  plan.deck.sim.solver = request.solver;
  plan.deck.sim.edge_stop.vdd = request.keep_waveforms ? 0.0 : vdd;
  plan.dominant_leaf = metrics.dominant_leaf;
  plan.source = core::deck_time_source(model, plan.input_time_50);
  return plan;
}

// Records a replay's far end on the slot's answer: what the inline and the
// grouped replays both report, so batching is a bitwise no-op on them.
void record_far_end(Response& response, const ReplayPlan& plan, const wave::Waveform& far,
                    sim::SolverKind solver, double vdd, bool keep_waveform) {
  response.model_far = core::measure_edge(far, vdd, plan.input_time_50);
  response.has_model_far = true;
  response.input_time_50 = plan.input_time_50;
  response.has_solver = true;
  response.solver = solver;
  if (keep_waveform) response.model_far_wave = far;
}

// Whether run_batch defers a slot's far-end replay past the sweep, into the
// equal-topology blocks.  A wall-clock limit or an enabled degrade policy
// keeps the replay in the slot's own pass: the deadline and the ladder are
// tied to that pass, and deferral would move work past both.
bool defers_replay(const Request& request, const BatchOptions& options) {
  return request.far_end_replay && options.batch_scenarios && !request.degrade.enabled &&
         request.budget.wall_limit_s <= 0.0;
}

// Runs run_batch's deferred replays as shared-factorization blocks (one
// factor per equal-topology group and step size) and patches their slots of
// `results`: the far end on success, a failed Outcome for a lane whose
// replay faulted.  Group machinery failures fall back to per-lane scalar
// replays before failing anything.
void run_deferred_replays(const tech::Technology& technology,
                          std::span<const Request> requests, std::span<ReplayJob> jobs,
                          const BatchOptions& options,
                          std::vector<Outcome<Response>>& results) {
  if (jobs.empty()) return;

  // Plan and compile every deck up front (in parallel — netlist building is
  // cheap but hundreds of thousand-node ladders add up).  A plan or compile
  // failure fails just its own slot, with the error the inline replay would
  // have raised.
  std::vector<tech::SourceNetDeck> decks(jobs.size());
  std::vector<sim::TransientOptions> sim_opts(jobs.size());
  const std::vector<std::exception_ptr> compile_errors =
      sim::run_indexed_sweep_collect(
          jobs.size(),
          [&](std::size_t i) {
            ReplayJob& job = jobs[i];
            const Request& request = requests[job.slot];
            job.plan = plan_far_end_replay(request, options, results[job.slot].value().model,
                                           technology.vdd);
            decks[i] = tech::compile_source_net(job.plan.source, request.net, job.plan.deck);
            sim_opts[i] = tech::sim_options(job.plan.deck, decks[i]);
          },
          options.n_threads);

  // A failed lane keeps the time its slot's pass took.
  const auto fail_slot = [&](std::size_t slot, std::exception_ptr e, double extra_s) {
    ErrorInfo info = describe_failure(std::move(e), requests[slot].label);
    info.elapsed_s = results[slot].value().elapsed_s + extra_s;
    results[slot] = Outcome<Response>(std::move(info));
  };

  // Group by structural hash, confirmed by the exhaustive bit-compare —
  // near-identical decks (one ULP, one extra edge) never share a matrix.
  // Each deck is hashed once; a group keeps its head's hash.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::uint64_t> group_hash;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (compile_errors[i]) {
      fail_slot(jobs[i].slot, compile_errors[i], 0.0);
      continue;
    }
    const std::uint64_t hash =
        sim::scenario_group_hash(decks[i].netlist, sim_opts[i]);
    bool placed = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t head = groups[g].front();
      if (group_hash[g] != hash) continue;
      if (!sim::scenario_group_equal(decks[head].netlist, decks[i].netlist)) continue;
      if (!sim::scenario_options_equal(sim_opts[head], sim_opts[i])) continue;
      if (decks[head].probes != decks[i].probes) continue;
      groups[g].push_back(i);
      placed = true;
      break;
    }
    if (!placed) {
      groups.push_back({i});
      group_hash.push_back(hash);
    }
  }

  // Equal-topology groups run as blocks; groups run in parallel across the
  // sweep pool (they touch disjoint slots).  A failure of the *shared*
  // machinery falls back to per-lane scalar replays, so a group-level fault
  // can never fail a scenario that would have succeeded alone.
  const auto run_group = [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t head = members.front();
    const sim::TransientOptions& so = sim_opts[head];

    std::vector<sim::BlockOutcome> outcomes;
    if (members.size() > 1) {
      std::vector<sim::BlockScenario> lanes;
      lanes.reserve(members.size());
      for (std::size_t i : members) {
        lanes.push_back({&decks[i].netlist, jobs[i].plan.deck.t_stop, jobs[i].tracker});
      }
      try {
        outcomes = sim::simulate_block(lanes, so, decks[head].probes);
      } catch (...) {
        outcomes.clear();
      }
    }
    if (outcomes.empty()) {
      // Singleton group, or the shared path refused/failed: scalar per lane.
      for (std::size_t i : members) {
        sim::BlockOutcome o;
        try {
          sim::TransientOptions lane_opt = so;
          lane_opt.t_stop = jobs[i].plan.deck.t_stop;
          lane_opt.budget = jobs[i].tracker;
          o.result = sim::simulate(decks[i].netlist, lane_opt, decks[i].probes);
        } catch (...) {
          o.error = std::current_exception();
        }
        outcomes.push_back(std::move(o));
      }
    }

    const sim::SolverKind solver = sim::selected_solver(decks[head].netlist, so);
    const double elapsed_share =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t i = members[k];
      const ReplayJob& job = jobs[i];
      if (!outcomes[k].result.has_value()) {
        fail_slot(job.slot, outcomes[k].error, elapsed_share);
        continue;
      }
      try {
        Response& response = results[job.slot].value();
        record_far_end(response, job.plan,
                       outcomes[k].result->at(decks[i].nodes.leaves.at(job.plan.dominant_leaf)),
                       solver, technology.vdd, requests[job.slot].keep_waveforms);
        response.elapsed_s += elapsed_share;
      } catch (...) {
        fail_slot(job.slot, std::current_exception(), elapsed_share);
      }
    }
  };
  const std::vector<std::exception_ptr> group_escapes =
      sim::run_indexed_sweep_collect(groups.size(), run_group, options.n_threads);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!group_escapes[g]) continue;
    for (std::size_t i : groups[g]) {
      const std::size_t slot = jobs[i].slot;
      results[slot] =
          Outcome<Response>(describe_failure(group_escapes[g], requests[slot].label));
    }
  }
}

// The fidelity a tier's rung answers at.
Fidelity fidelity_of(tier::Tier t) {
  switch (t) {
    case tier::Tier::analytical: return Fidelity::analytical;
    case tier::Tier::ceff: return Fidelity::ceff_model;
    case tier::Tier::reference: return Fidelity::reference;
  }
  return Fidelity::ceff_model;
}

}  // namespace

Engine::Engine(tech::Technology technology) : technology_(technology) {}

Response Engine::dispatch(const Request& request, const BatchOptions& options,
                          util::ExecTracker* budget, Climb& climb) {
  using tier::TierPolicy;
  const TierPolicy policy = request.tier;
  const bool gate = request.require_convergence;

  // Balanced and fastest try Tier A first: the cheap topology screen
  // (coupled groups), then the estimate-based screen on the served net's
  // estimate, before anything else is built from it.  A refused slot stops
  // there: no Response, and no quiet-net estimate for a coupled victim.  A
  // closed form that throws (degenerate fit, stalled table fixed point) is
  // just another refusal: the denser tiers own that net.  Budget and
  // cancellation faults are not; they abort the slot like anywhere else.
  tier::Admission admission;
  if (policy == TierPolicy::balanced || policy == TierPolicy::fastest) {
    if (request.coupled()) {
      admission = tier::admit_group_analytical(request.group, request.victim);
    }
    if (admission.ok) {
      try {
        const charlib::CharacterizedDriver& driver =
            library_.ensure_driver(technology_, request.cell_size, options.grid);
        tier::AnalyticalEstimate served = analytical_served(request, driver);
        admission = tier::admit_analytical(served);
        if (admission.ok) return analytical_response(request, driver, served);
      } catch (const DeadlineError&) {
        throw;
      } catch (const BudgetError&) {
        throw;
      } catch (const Error&) {
        admission = {false, "estimate_failed"};
      }
    }
    ++climb.escalations;
  }

  // The rung the policy table routes to: a refused Tier A lands on Tier B,
  // the forced policies pin theirs (forced Tier A skips admission, which is
  // what calibration wants), and TierPolicy::reference follows the
  // request's reference flag.
  const tier::Tier routed = tier::route(policy, admission, request.reference);
  climb.rung = fidelity_of(routed);
  if (routed == tier::Tier::analytical) {
    const charlib::CharacterizedDriver& driver =
        library_.ensure_driver(technology_, request.cell_size, options.grid);
    tier::AnalyticalEstimate served = analytical_served(request, driver);
    return analytical_response(request, driver, served);
  }
  if (routed == tier::Tier::reference) {
    return reference_response(request, options, gate, budget);
  }
  if (policy != TierPolicy::balanced) {
    return ceff_response(request, options, gate, budget);
  }
  // Under balanced, a Tier B fixed point that did not converge (it ran out
  // of its max_iter cap) escalates once more, to one Tier-C experiment that
  // answers from its simulated edges (ref_near / ref_far).  The Ceff model
  // that just failed rides along as a diagnostic, its converged flags
  // telling, instead of gating the slot: gated, the experiment would
  // rethrow the same error after paying for the transient.
  try {
    return ceff_response(request, options, gate, budget);
  } catch (const ConvergenceError&) {
    ++climb.escalations;
    climb.rung = Fidelity::reference;
    return reference_response(request, options, false, budget);
  }
}

Response Engine::analytical_response(const Request& request,
                                     const charlib::CharacterizedDriver& driver,
                                     tier::AnalyticalEstimate& served) {
  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::analytical;
  response.tier = tier::Tier::analytical;
  measure_served_net(
      request, response, served,
      [&](const net::Net& net) {
        return tier::analytical_estimate(driver, request.input_slew, net);
      },
      [](const tier::AnalyticalEstimate& e) {
        return core::EdgeMetrics{e.delay, e.slew_10_90};
      });
  if (request.coupled()) {
    response.has_noise_bound = true;
    response.noise_bound =
        tier::noise_bound(request.group, request.victim, technology_.vdd);
  }
  // Move, not copy: the waveform's points are the only allocation in the
  // model.
  response.model = std::move(served.model);
  return response;
}

Response Engine::ceff_response(const Request& request, const BatchOptions& options,
                               bool gate, util::ExecTracker* budget) {
  core::DriverModelOptions model = request.model;
  model.iteration.budget = budget;
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::ceff_model;
  response.tier = tier::Tier::ceff;
  const auto estimate = [&](const net::Net& net) {
    return core::model_driver_output(driver, request.input_slew, net, model);
  };
  response.model = estimate_served_net(request, estimate);
  // A non-converged quiet-baseline model fails the slot like the primary
  // model.
  measure_served_net(
      request, response, response.model, estimate,
      [&](const core::DriverOutputModel& m) {
        return core::measure_modeled_edge(m, technology_.vdd);
      },
      [&](const core::DriverOutputModel& base) {
        check_convergence(request.label, gate, base);
      });
  check_convergence(request.label, gate, response.model);
  return response;
}

Response Engine::reference_response(const Request& request, const BatchOptions& options,
                                    bool gate, util::ExecTracker* budget) {
  core::DriverModelOptions model = request.model;
  model.iteration.budget = budget;
  tech::DeckOptions deck = options.deck;
  deck.sim.budget = budget;
  deck.sim.solver = request.solver;

  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::reference;
  response.tier = tier::Tier::reference;
  response.has_reference = true;
  response.has_model_far = request.far_end;
  response.has_solver = true;
  if (request.coupled()) {
    core::CoupledExperimentOptions opt;
    opt.deck = deck;
    opt.grid = options.grid;
    opt.model = model;
    opt.include_far_end = request.far_end;
    opt.include_noise = request.noise;
    opt.keep_waveforms = request.keep_waveforms;
    core::CoupledExperimentResult r = core::run_coupled_experiment(
        technology_, library_, coupled_case(request), opt);
    // The pushout estimate leans on the quiet-baseline model too; a
    // non-converged baseline must fail the slot like the primary model.
    check_convergence(request.label, gate, r.model_base);
    response.has_coupling = true;
    response.model = std::move(r.model);
    response.model_near = r.model_near;
    response.ref_near = r.ref_near;
    response.ref_far = r.ref_far;
    response.model_far = r.model_far;
    response.base_near = r.base_near;
    response.base_far = r.base_far;
    response.delay_pushout = r.delay_pushout;
    response.delay_pushout_model = r.delay_pushout_model;
    response.peak_noise = r.peak_noise;
    response.input_time_50 = r.input_time_50;
    response.solver = r.solver;
    response.ref_near_wave = std::move(r.ref_near_wave);
    response.ref_far_wave = std::move(r.ref_far_wave);
  } else {
    core::ExperimentCase scenario;
    scenario.label = request.label;
    scenario.driver_size = request.cell_size;
    scenario.input_slew = request.input_slew;
    scenario.net = request.net;

    core::ExperimentOptions opt;
    opt.deck = deck;
    opt.grid = options.grid;
    opt.model = model;
    opt.include_far_end = request.far_end;
    opt.include_one_ramp = request.one_ramp_baseline;
    opt.keep_waveforms = request.keep_waveforms;

    core::ExperimentResult r =
        core::run_experiment(technology_, library_, scenario, opt);
    response.model = std::move(r.model);
    response.model_near = r.model_near;
    response.ref_near = r.ref_near;
    response.ref_far = r.ref_far;
    response.model_far = r.model_far;
    response.one_near = r.one_near;
    response.one_ramp = std::move(r.one_ramp);
    response.ref_near_wave = std::move(r.ref_near_wave);
    response.ref_far_wave = std::move(r.ref_far_wave);
    response.model_far_wave = std::move(r.model_far_wave);
    response.input_time_50 = r.input_time_50;
    response.solver = r.solver;
  }
  check_convergence(request.label, gate, response.model);
  return response;
}

Response Engine::moments_only_response(const Request& request,
                                       const BatchOptions& options) {
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::moments_only;
  // tier::Tier has no floor rung yet: the floor answers as Tier B.
  response.tier = tier::Tier::ceff;
  const auto estimate = [&](const net::Net& net) {
    return core::estimate_driver_output_moments_only(driver, request.input_slew, net);
  };
  response.model = estimate_served_net(request, estimate);
  measure_served_net(request, response, response.model, estimate,
                     [&](const core::DriverOutputModel& m) {
                       return core::measure_modeled_edge(m, technology_.vdd);
                     });
  return response;
}

Outcome<Response> Engine::run_slot(const Request& request, const BatchOptions& options,
                                   std::size_t slot, util::ExecTracker& tracker,
                                   bool defer_replay) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  tracker.arm(request.budget);
  // The pass starts on the rung its policy routes to first.  Degraded
  // answers report the pass's escalations.
  Climb climb{fidelity_of(tier::route(request.tier, {}, request.reference))};
  std::vector<lint::Diagnostic> diagnostics;
  std::vector<Attempt> attempts;

  auto finish = [&](Response r, bool degraded) {
    r.diagnostics = std::move(diagnostics);
    r.tier_escalations = climb.escalations;
    r.degraded = degraded;
    r.attempts = std::move(attempts);
    r.elapsed_s = elapsed();
    return Outcome<Response>(std::move(r));
  };
  auto fail = [&](std::exception_ptr e) {
    ErrorInfo info = describe_failure(std::move(e), request.label);
    info.elapsed_s = elapsed();
    return Outcome<Response>(std::move(info));
  };

  // Admission runs once per slot, then one pass down the rungs and the
  // far-end replay a far_end_replay slot runs on its Tier-B answer, unless
  // run_batch replays it after the sweep.
  std::exception_ptr first_error;
  try {
    diagnostics = admit(request, technology_);
    tracker.check("api::Engine slot");
    if (options.debug_slot_fault) options.debug_slot_fault(slot, tracker);
    Response r = dispatch(request, options, &tracker, climb);
    if (request.far_end_replay && !defer_replay) {
      ReplayPlan plan = plan_far_end_replay(request, options, r.model, technology_.vdd);
      plan.deck.sim.budget = &tracker;
      const tech::NetSimResult replay =
          tech::simulate_source_net(plan.source, request.net, plan.deck);
      record_far_end(r, plan, replay.leaves.at(plan.dominant_leaf), replay.solver,
                     technology_.vdd, request.keep_waveforms);
    }
    return finish(std::move(r), false);
  } catch (...) {
    first_error = std::current_exception();
  }
  const ErrorInfo first = describe_failure(first_error, request.label);

  // Cancellation aborts outright — degrading a cancelled slot spends more
  // work on an answer nobody is waiting for.
  if (!request.degrade.enabled || request.budget.cancel.cancel_requested()) {
    return fail(first_error);
  }
  attempts.push_back({climb.rung, first.code, first.message});

  const bool degradable = first.code == ErrorCode::deadline_exceeded ||
                          first.code == ErrorCode::resource_exhausted ||
                          first.code == ErrorCode::convergence_failure;
  if (!degradable) return fail(first_error);

  // Ladder tier 2: a reference request falls back to Tier B.  The exhausted
  // budget is deliberately not re-armed: the fallback is iteration-capped
  // table math with bounded cost, and raising the same DeadlineError again
  // would make degradation unreachable.
  if (request.reference) {
    try {
      return finish(
          ceff_response(request, options, request.require_convergence, nullptr), true);
    } catch (...) {
      const ErrorInfo info = describe_failure(std::current_exception(), request.label);
      attempts.push_back({Fidelity::ceff_model, info.code, info.message});
    }
  }

  // Ladder floor: the moments-only estimate (cell table at Ctotal) — no
  // iteration, cannot fail to converge.
  try {
    return finish(moments_only_response(request, options), true);
  } catch (...) {
    // Fall through to report the original failure; the floor itself only
    // throws for requests broken enough that degradation is meaningless.
  }
  return fail(first_error);
}

Outcome<Response> Engine::model(const Request& request, const BatchOptions& options) {
  util::ExecTracker tracker;
  return run_slot(request, options, 0, tracker, false);
}

std::vector<Outcome<Response>> Engine::run_batch(std::span<const Request> requests,
                                                 const BatchOptions& options) {
  // Pre-characterize the batch's distinct cell sizes once, so the fan-out
  // below hits a warm, read-mostly library.  A size whose characterization
  // failed is remembered and its error re-raised directly for every slot
  // using that size — without this, each such slot would re-run the full
  // characterization grid just to hit the same exception again.
  std::vector<double> sizes;
  for (const Request& r : requests) {
    if (r.cell_size <= 0.0) continue;
    const bool seen = std::any_of(sizes.begin(), sizes.end(), [&](double s) {
      return std::abs(s - r.cell_size) < 1e-9;
    });
    if (!seen) sizes.push_back(r.cell_size);
  }
  const std::vector<double> missing = collect_missing(sizes);
  const std::vector<std::exception_ptr> errors = sim::run_indexed_sweep_collect(
      missing.size(),
      [&](std::size_t i) {
        library_.ensure_driver(technology_, missing[i], options.grid);
      },
      options.n_threads);
  auto characterization_failure = [&](double size) -> std::exception_ptr {
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (errors[i] && std::abs(missing[i] - size) < 1e-9) return errors[i];
    }
    return nullptr;
  };

  // The slots whose far-end replay runs after the sweep, in slot order, each
  // with the tracker its pass arms and its deferred replay keeps charging.
  // Every other slot's tracker lives on its worker's stack.
  std::vector<std::size_t> deferring;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (defers_replay(requests[i], options)) deferring.push_back(i);
  }
  std::vector<util::ExecTracker> trackers(deferring.size());

  // Fan the slots out with the full per-slot policy (budget arming,
  // degradation).  The workers write straight into the pre-sized results
  // vector — an Outcome<Response> is ~1 KB, and routing it through a second
  // staging container costs a full copy round per slot at Tier A rates.
  // run_slot never throws for per-scenario failures; the collect is
  // belt-and-braces against anything escaping the policy itself.
  std::vector<Outcome<Response>> results(requests.size(),
                                         Outcome<Response>(ErrorInfo{}));
  const std::vector<std::exception_ptr> escapes = sim::run_indexed_sweep_collect(
      requests.size(),
      [&](std::size_t i) {
        const Request& r = requests[i];
        if (std::exception_ptr e = characterization_failure(r.cell_size)) {
          results[i] = Outcome<Response>(describe_failure(e, r.label));
          return;
        }
        const auto d = std::lower_bound(deferring.begin(), deferring.end(), i);
        if (d != deferring.end() && *d == i) {
          const auto k = static_cast<std::size_t>(d - deferring.begin());
          results[i] = run_slot(r, options, i, trackers[k], true);
          return;
        }
        util::ExecTracker tracker;
        results[i] = run_slot(r, options, i, tracker, false);
      },
      options.n_threads);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (escapes[i]) {
      results[i] = Outcome<Response>(describe_failure(escapes[i], requests[i].label));
    }
  }

  // The deferred replays of the slots that answered, in slot order.
  std::vector<ReplayJob> jobs;
  for (std::size_t k = 0; k < deferring.size(); ++k) {
    if (results[deferring[k]].ok()) jobs.push_back({deferring[k], &trackers[k], {}});
  }
  run_deferred_replays(technology_, requests, jobs, options, results);
  return results;
}

std::vector<double> Engine::collect_missing(std::span<const double> sizes) const {
  std::vector<double> missing;
  for (double size : sizes) {
    if (library_.find(size) != nullptr) continue;
    const bool seen = std::any_of(missing.begin(), missing.end(), [&](double s) {
      return std::abs(s - size) < 1e-9;
    });
    if (!seen) missing.push_back(size);
  }
  return missing;
}

void Engine::warm_cache(std::span<const double> cell_sizes,
                        const charlib::CharacterizationGrid& grid,
                        unsigned n_threads) {
  const std::vector<double> missing = collect_missing(cell_sizes);
  sim::run_indexed_sweep(
      missing.size(),
      [&](std::size_t i) { library_.ensure_driver(technology_, missing[i], grid); },
      n_threads);
}

void Engine::warm_cache(std::initializer_list<double> cell_sizes,
                        const charlib::CharacterizationGrid& grid,
                        unsigned n_threads) {
  warm_cache(std::span<const double>(cell_sizes.begin(), cell_sizes.size()), grid,
             n_threads);
}

bool Engine::load_library(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  library_.load(in);
  return true;
}

void Engine::save_library(const std::string& path) const {
  library_.save_file(path);
}

}  // namespace rlceff::api
