#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "core/coupled_experiment.h"
#include "core/experiment.h"
#include "sim/scenario_block.h"
#include "sim/sweep.h"
#include "tier/analytical.h"
#include "tier/router.h"
#include "waveform/waveform.h"

namespace rlceff::api {

// The replay deck a model-only far_end_replay slot runs: the modeled PWL
// shifted into absolute deck time (the model's t = 0 is the input 50 %
// crossing, analytically t_start + slew/2 for a saturated ramp input), a
// horizon auto-sized exactly like the reference harness, and the
// dominant-path leaf to measure.  Unless the slot keeps the waveform, the
// deck ends at its last measured crossing (sim::EdgeStop).
struct ReplayPlan {
  wave::Pwl source;         // modeled PWL in absolute deck time
  tech::DeckOptions deck;   // t_stop sized; sim.solver set; budget unset
  std::size_t dominant_leaf = 0;
  double input_time_50 = 0.0;
};

// One deferred far-end replay: a slot's plan, run after its model already
// answered.  The request is the caller's (run_batch's request span outlives
// finalize_deferred), and the job shares ownership of the slot's ExecTracker
// so a budget armed at slot start keeps charging the deferred work.
struct ReplayJob {
  std::size_t slot = 0;
  const Request* request = nullptr;
  ReplayPlan plan;
  std::shared_ptr<util::ExecTracker> tracker;
};

struct ReplayCollector {
  std::mutex mutex;
  std::vector<ReplayJob> jobs;

  void add(ReplayJob job) {
    const std::lock_guard<std::mutex> lock(mutex);
    jobs.push_back(std::move(job));
  }
  // Hands the slot's tracker to its job once the slot's primary pass
  // committed to the deferred answer.
  void attach_tracker(std::size_t slot, std::shared_ptr<util::ExecTracker> tracker) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (ReplayJob& job : jobs) {
      if (job.slot == slot) job.tracker = std::move(tracker);
    }
  }
  // Drops a slot's job when the slot failed after enqueueing: a failed slot
  // must not be patched.
  void discard(std::size_t slot) {
    const std::lock_guard<std::mutex> lock(mutex);
    std::erase_if(jobs, [slot](const ReplayJob& job) { return job.slot == slot; });
  }
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
// converged first-ramp time.
std::vector<lint::Diagnostic> admit(const Request& request,
                                    const tech::Technology& technology) {
  validate(request);
  if (!request.lint.screen && !request.lint.report) return {};
  lint::Options checks = request.lint.checks;
  if (!(checks.driver_resistance > 0.0)) {
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

// Measures the modeled PWL alone (no deck): the emitted waveform always ends
// on the rail, so extending it by one step covers every crossing.
core::EdgeMetrics measure_model(const core::DriverOutputModel& m, double vdd) {
  const wave::Waveform w = m.waveform.to_waveform(m.waveform.end_time() + 1e-12);
  const wave::EdgeTiming e = wave::measure_rising_edge(w, 0.0, vdd);
  return {e.t50, e.transition_10_90()};
}

struct NoBaseCheck {
  template <class T>
  void operator()(const T&) const {}
};

// The net a model rung (Tier A, Tier B, the floor) estimates.  Runs
// `estimate(net)`, stores `measure` of that estimate in response.model_near
// and returns the estimate.  A coupled victim is estimated on its
// Miller-decoupled net, each aggressor's coupling scaled by its Miller factor
// (nets without an aggressor entry stay quiet at 1x), and the modeled delay
// pushout is set against the quiet-environment net.  With all-quiet
// aggressors the Miller net is the quiet net: the pushout is exactly zero and
// the second run is skipped.  `check_base` sees the quiet-net estimate before
// its delay is read.
template <class Estimate, class Measure, class CheckBase = NoBaseCheck>
auto estimate_served_net(const Request& request, Response& response, Estimate estimate,
                         Measure measure, CheckBase check_base = {}) {
  if (!request.coupled()) {
    auto single = estimate(request.net);
    response.model_near = measure(single);
    return single;
  }
  response.has_coupling = true;
  std::vector<double> factors(request.group.size(), 1.0);
  for (const Aggressor& a : request.aggressors) {
    factors[a.net] = core::miller_factor(a.switching);
  }
  auto victim = estimate(request.group.decoupled_net(request.victim, factors));
  response.model_near = measure(victim);
  const bool all_quiet =
      std::all_of(factors.begin(), factors.end(), [](double f) { return f == 1.0; });
  if (!all_quiet) {
    const auto base = estimate(request.group.decoupled_net(request.victim));
    check_base(base);
    response.delay_pushout_model = response.model_near.delay - measure(base).delay;
  }
  return victim;
}

ReplayPlan plan_far_end_replay(const Request& request, const BatchOptions& options,
                               const core::DriverOutputModel& model, double vdd) {
  const net::NetMetrics metrics = request.net.metrics();
  ReplayPlan plan;
  plan.input_time_50 = options.deck.t_start + 0.5 * request.input_slew;
  plan.deck = options.deck;
  plan.deck.t_stop = options.deck.t_start + request.input_slew +
                     std::max(1e-9, core::settle_time(request.cell_size, metrics));
  plan.deck.sim.budget = nullptr;
  plan.deck.sim.solver = request.solver;
  plan.deck.sim.edge_stop.vdd = request.keep_waveforms ? 0.0 : vdd;
  plan.dominant_leaf = metrics.dominant_leaf;
  std::vector<std::pair<double, double>> pts = model.waveform.points();
  for (auto& [t, v] : pts) t += plan.input_time_50;
  plan.source = wave::Pwl(std::move(pts));
  return plan;
}

// The per-slot replay path (no collector, degrade enabled, or wall-clock
// limited): identical construction and measurement to the batched path, so
// BatchOptions::batch_scenarios on/off is a bitwise no-op on the numbers.
void run_replay_inline(const tech::Technology& technology, const Request& request,
                       const ReplayPlan& plan, util::ExecTracker* budget,
                       Response& response) {
  tech::DeckOptions deck = plan.deck;
  deck.sim.budget = budget;
  const tech::NetSimResult replay =
      tech::simulate_source_net(plan.source, request.net, deck);
  const wave::Waveform& far = replay.leaves.at(plan.dominant_leaf);
  response.model_far =
      core::measure_edge(far, technology.vdd, plan.input_time_50);
  response.has_model_far = true;
  response.input_time_50 = plan.input_time_50;
  response.has_solver = true;
  response.solver = replay.solver;
  if (request.keep_waveforms) response.model_far_wave = far;
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
                          const core::DriverModelOptions& model,
                          util::ExecTracker* budget, Climb& climb) {
  using tier::TierPolicy;
  const TierPolicy policy = request.tier;
  const bool gate = request.require_convergence;

  // Balanced and fastest try Tier A first: the cheap topology screen
  // (coupled groups), then the estimate-based screen once the estimate
  // exists.  A closed form that throws (degenerate fit, stalled table fixed
  // point) is just another refusal: the denser tiers own that net.  Budget
  // and cancellation faults are not; they abort the slot like anywhere else.
  tier::Admission admission;
  if (policy == TierPolicy::balanced || policy == TierPolicy::fastest) {
    if (request.coupled()) {
      admission = tier::admit_group_analytical(request.group, request.victim);
    }
    if (admission.ok) {
      try {
        tier::AnalyticalEstimate estimate;
        Response a = analytical_response(request, options, &estimate);
        admission = tier::admit_analytical(estimate);
        if (admission.ok) return a;
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
  if (routed == tier::Tier::analytical) return analytical_response(request, options);
  if (routed == tier::Tier::reference) {
    return reference_response(request, options, model, gate, budget);
  }
  if (policy != TierPolicy::balanced) {
    return ceff_response(request, options, model, gate, budget);
  }
  // Under balanced, a Tier B fixed point that cannot agree with itself
  // escalates once more, to one Tier-C experiment that answers from its
  // simulated edges (ref_near / ref_far).  The Ceff model that just failed
  // rides along as a diagnostic, its converged flags telling, instead of
  // gating the slot: gated, the experiment would rethrow the same error
  // after paying for the transient.
  try {
    return ceff_response(request, options, model, gate, budget);
  } catch (const ConvergenceError&) {
    ++climb.escalations;
    climb.rung = Fidelity::reference;
    return reference_response(request, options, model, false, budget);
  }
}

Response Engine::analytical_response(const Request& request,
                                     const BatchOptions& options,
                                     tier::AnalyticalEstimate* estimate_out) {
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::analytical;
  response.tier = tier::Tier::analytical;
  tier::AnalyticalEstimate estimate = estimate_served_net(
      request, response,
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
  // model and the admission screen only reads the scalar fields.
  response.model = std::move(estimate.model);
  if (estimate_out) *estimate_out = std::move(estimate);
  return response;
}

Response Engine::ceff_response(const Request& request, const BatchOptions& options,
                               core::DriverModelOptions model, bool gate,
                               util::ExecTracker* budget) {
  model.iteration.budget = budget;
  const charlib::CharacterizedDriver& driver =
      library_.ensure_driver(technology_, request.cell_size, options.grid);
  Response response;
  response.label = request.label;
  response.fidelity = Fidelity::ceff_model;
  response.tier = tier::Tier::ceff;
  // A non-converged quiet-baseline model fails the slot like the primary
  // model.
  response.model = estimate_served_net(
      request, response,
      [&](const net::Net& net) {
        return core::model_driver_output(driver, request.input_slew, net, model);
      },
      [&](const core::DriverOutputModel& m) {
        return measure_model(m, technology_.vdd);
      },
      [&](const core::DriverOutputModel& base) {
        check_convergence(request.label, gate, base);
      });
  check_convergence(request.label, gate, response.model);
  return response;
}

Response Engine::reference_response(const Request& request, const BatchOptions& options,
                                    core::DriverModelOptions model, bool gate,
                                    util::ExecTracker* budget) {
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
  response.model = estimate_served_net(
      request, response,
      [&](const net::Net& net) {
        return core::estimate_driver_output_moments_only(driver, request.input_slew,
                                                         net);
      },
      [&](const core::DriverOutputModel& m) {
        return measure_model(m, technology_.vdd);
      });
  return response;
}

Outcome<Response> Engine::run_slot(const Request& request, const BatchOptions& options,
                                   std::size_t slot, ReplayCollector* collector) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Heap-owned tracker: a deferred replay charges this slot's budget after
  // run_slot returns, so the collector shares ownership with the job.
  const auto owned_tracker = std::make_shared<util::ExecTracker>(request.budget);
  util::ExecTracker& tracker = *owned_tracker;
  // Every pass starts on the rung its policy routes to first.  Retried and
  // degraded answers report the primary pass's escalations.
  const Climb start{fidelity_of(tier::route(request.tier, {}, request.reference))};
  Climb climb = start;
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

  // One pass down the rungs, then the far-end replay a far_end_replay slot
  // runs on its Tier-B answer.  The replay defers to the collector unless
  // the slot has a wall-clock limit or an enabled degrade policy: the
  // deadline and ladder semantics are tied to the slot's own passes, and
  // deferral would move work past both.
  const bool defer = collector != nullptr && !request.degrade.enabled &&
                     request.budget.wall_limit_s <= 0.0;
  auto run_pass = [&](const core::DriverModelOptions& model, Climb& at) {
    Response r = dispatch(request, options, model, &tracker, at);
    if (!request.far_end_replay) return r;
    ReplayPlan plan = plan_far_end_replay(request, options, r.model, technology_.vdd);
    if (!defer) {
      run_replay_inline(technology_, request, plan, &tracker, r);
      return r;
    }
    r.input_time_50 = plan.input_time_50;
    collector->add({slot, &request, std::move(plan), nullptr});
    return r;
  };

  // Admission runs once per slot, then the primary pass.
  std::exception_ptr first_error;
  try {
    diagnostics = admit(request, technology_);
    tracker.check("api::Engine slot");
    if (options.debug_slot_fault) options.debug_slot_fault(slot, tracker);
    Response r = run_pass(request.model, climb);
    if (collector) collector->attach_tracker(slot, owned_tracker);
    return finish(std::move(r), false);
  } catch (...) {
    first_error = std::current_exception();
    // A slot that enqueued a replay and then failed must not be patched.
    if (collector) collector->discard(slot);
  }
  const ErrorInfo first = describe_failure(first_error, request.label);

  // Cancellation aborts outright — degrading a cancelled slot spends more
  // work on an answer nobody is waiting for.
  if (!request.degrade.enabled || request.budget.cancel.cancel_requested()) {
    return fail(first_error);
  }
  attempts.push_back({climb.rung, first.code, first.message});

  // Damped retry: the same dispatch with the damped fixed point.  A
  // converged retry is an exact answer.
  if (first.code == ErrorCode::convergence_failure &&
      request.degrade.retry_damping > 0.0) {
    core::DriverModelOptions damped = request.model;
    damped.iteration.damping = request.degrade.retry_damping;
    Climb retry = start;
    try {
      return finish(run_pass(damped, retry), false);
    } catch (...) {
      const ErrorInfo info = describe_failure(std::current_exception(), request.label);
      attempts.push_back(
          {retry.rung, info.code, std::string("damped retry: ") + info.message});
    }
  }

  const ErrorCode last = attempts.back().code;
  const bool degradable = last == ErrorCode::deadline_exceeded ||
                          last == ErrorCode::resource_exhausted ||
                          last == ErrorCode::convergence_failure;
  if (!degradable) return fail(first_error);

  // Ladder tier 2: a reference request falls back to Tier B.  The exhausted
  // budget is deliberately not re-armed: the fallback is iteration-capped
  // table math with bounded cost, and raising the same DeadlineError again
  // would make degradation unreachable.
  if (request.reference) {
    try {
      return finish(ceff_response(request, options, request.model,
                                  request.require_convergence, nullptr),
                    true);
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
  return run_slot(request, options, 0);
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

  // Fan the slots out with the full per-slot policy (budget arming, retry,
  // degradation).  The workers write straight into the pre-sized results
  // vector — an Outcome<Response> is ~1 KB, and routing it through a second
  // staging container costs a full copy round per slot at Tier A rates.
  // run_slot never throws for per-scenario failures; the collect is
  // belt-and-braces against anything escaping the policy itself.
  std::vector<Outcome<Response>> results(requests.size(),
                                         Outcome<Response>(ErrorInfo{}));
  ReplayCollector collector;
  ReplayCollector* collect = options.batch_scenarios ? &collector : nullptr;
  const std::vector<std::exception_ptr> escapes = sim::run_indexed_sweep_collect(
      requests.size(),
      [&](std::size_t i) {
        const Request& r = requests[i];
        if (std::exception_ptr e = characterization_failure(r.cell_size)) {
          results[i] = Outcome<Response>(describe_failure(e, r.label));
          return;
        }
        results[i] = run_slot(r, options, i, collect);
      },
      options.n_threads);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (escapes[i]) {
      results[i] = Outcome<Response>(describe_failure(escapes[i], requests[i].label));
    }
  }
  // Deferred far_end_replay transients: group equal-topology decks and run
  // each group as one shared-factorization multi-RHS block, then patch the
  // affected slots.  (No-op when nothing deferred.)
  if (collect) finalize_deferred(collector, options, results);
  return results;
}

void Engine::finalize_deferred(ReplayCollector& collector, const BatchOptions& options,
                               std::vector<Outcome<Response>>& results) {
  std::vector<ReplayJob>& jobs = collector.jobs;  // workers are done: no lock
  // Belt-and-braces: never patch a slot that is no longer a success (e.g. a
  // sweep escape overwrote it after the job was enqueued).
  std::erase_if(jobs, [&](const ReplayJob& j) { return !results[j.slot].ok(); });
  if (jobs.empty()) return;

  // Compile every deck up front (in parallel — netlist building is cheap but
  // hundreds of thousand-node ladders add up).  A compile failure fails just
  // its own slot.
  std::vector<tech::SourceNetDeck> decks(jobs.size());
  std::vector<sim::TransientOptions> sim_opts(jobs.size());
  const std::vector<std::exception_ptr> compile_errors =
      sim::run_indexed_sweep_collect(
          jobs.size(),
          [&](std::size_t i) {
            const ReplayPlan& plan = jobs[i].plan;
            decks[i] =
                tech::compile_source_net(plan.source, jobs[i].request->net, plan.deck);
            sim_opts[i] = tech::sim_options(plan.deck, decks[i]);
            sim_opts[i].budget = nullptr;  // per-lane trackers instead
          },
          options.n_threads);

  // Group by structural hash, confirmed by the exhaustive bit-compare —
  // near-identical decks (one ULP, one extra edge) never share a matrix.
  // Each deck is hashed once; a group keeps its head's hash.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::uint64_t> group_hash;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (compile_errors[i]) {
      const ReplayJob& job = jobs[i];
      results[job.slot] =
          Outcome<Response>(describe_failure(compile_errors[i], job.request->label));
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
        lanes.push_back(
            {&decks[i].netlist, jobs[i].plan.deck.t_stop, jobs[i].tracker.get()});
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
          lane_opt.budget = jobs[i].tracker.get();
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
        ErrorInfo info = describe_failure(outcomes[k].error, job.request->label);
        info.elapsed_s = results[job.slot].value().elapsed_s + elapsed_share;
        results[job.slot] = Outcome<Response>(std::move(info));
        continue;
      }
      // Exactly what run_replay_inline measures, from the blocked result.
      Response& response = results[job.slot].value();
      const wave::Waveform& far =
          outcomes[k].result->at(decks[i].nodes.leaves.at(job.plan.dominant_leaf));
      response.model_far =
          core::measure_edge(far, technology_.vdd, job.plan.input_time_50);
      response.has_model_far = true;
      response.has_solver = true;
      response.solver = solver;
      if (job.request->keep_waveforms) response.model_far_wave = far;
      response.elapsed_s += elapsed_share;
    }
  };
  const std::vector<std::exception_ptr> group_escapes =
      sim::run_indexed_sweep_collect(groups.size(), run_group, options.n_threads);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!group_escapes[g]) continue;
    for (std::size_t i : groups[g]) {
      results[jobs[i].slot] =
          Outcome<Response>(describe_failure(group_escapes[g], jobs[i].request->label));
    }
  }
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
