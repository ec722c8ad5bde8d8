// Plain data transfer objects for the api::Engine facade.
//
// A Request is everything a timing engine knows about one net: which cell
// drives it, the input slew, the interconnect (a net::Net), and the paper
// flow's controls.  A Response packages the DriverOutputModel, the measured
// edge metrics, and timing diagnostics.  BatchOptions carries the knobs that
// are properties of a *run* rather than of a net: reference-simulation
// fidelity, the characterization grid, and the sweep pool width.
#ifndef RLCEFF_API_REQUEST_H
#define RLCEFF_API_REQUEST_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "api/outcome.h"
#include "charlib/characterize.h"
#include "lint/lint.h"
#include "core/coupled_experiment.h"
#include "core/driver_model.h"
#include "core/experiment.h"
#include "net/coupled.h"
#include "net/net.h"
#include "tech/testbench.h"
#include "tier/tier.h"
#include "util/budget.h"

namespace rlceff::api {

// How the numbers in a Response were produced — the engine's fidelity
// ladder, highest first.  On deadline/budget exhaustion (with
// DegradePolicy::enabled) a slot falls down this ladder and the Response is
// stamped with the tier that actually answered.
enum class Fidelity {
  reference,     // full transient reference simulation + paper-flow model
  ceff_model,    // the paper's Ceff one/two-ramp model (table-driven)
  moments_only,  // degraded floor: cell table at Ctotal (first moment m1);
                 // see core::estimate_driver_output_moments_only's envelope
  analytical,    // Tier A: closed-form shielded-Ceff table estimate
                 // (tier/analytical.h); only produced by tiered requests
};

inline const char* to_string(Fidelity f) {
  switch (f) {
    case Fidelity::reference: return "reference";
    case Fidelity::ceff_model: return "ceff_model";
    case Fidelity::moments_only: return "moments_only";
    case Fidelity::analytical: return "analytical";
  }
  return "ceff_model";
}

// One abandoned attempt in a slot's trail: the rung that threw and why it
// was given up.  A slot that fails at admission (e.g. an expired deadline)
// names the rung its policy routes to first.
struct Attempt {
  Fidelity fidelity = Fidelity::ceff_model;
  ErrorCode code = ErrorCode::internal_error;
  std::string message;
};

// What the Engine may do when a slot fails, instead of surfacing the error.
// Default-off: failures stay failed Outcomes (bitwise-identical behavior to
// a policy-free engine).  With `enabled`, the slot's pipeline continues
// after a failed pass (the request is not admitted again):
//   1. a convergence_failure is retried once: the same dispatch with the
//      damped fixed point (damping = retry_damping).  A converged retry is a
//      full-fidelity, non-degraded answer; the attempt trail records the
//      first try;
//   2. deadline/budget exhaustion — or a retry that still fails — walks the
//      fidelity ladder, returning the first rung that completes, flagged
//      Response::degraded: a Request::reference slot falls back to Tier B
//      (unbudgeted), and every slot then to the moments_only floor.  The
//      fallbacks are iteration-capped table math (no transient), so they
//      add bounded work after an expired deadline.
// Cancelled slots never retry or degrade: nobody is waiting for the answer.
struct DegradePolicy {
  bool enabled = false;
  double retry_damping = 0.5;  // convergence retry damping; <= 0 skips retry
};

// Static-diagnostics controls for one request (src/lint/): the admission
// screen a production timing service runs before spending a single solve.
//   screen — lint the request's net/group up front; findings at or above
//     fail_at reject the slot with ErrorCode::lint_rejected *before* any
//     characterization lookup or transient, preserving per-slot isolation
//     (the rejection is never retried or degraded — the input is wrong, not
//     the execution).  The default checks are the structural core only
//     (connectivity + physicality, a branch-tree walk costing nanoseconds),
//     which is what keeps screening a batch under 1% of its model-only cost.
//   report — attach every finding to Response::diagnostics on success (and
//     run the deeper passes the checks request), for callers that want the
//     advisory output without the gate.
// The engine fills the Eq 9 driver context of `checks` from the request
// (estimated Rs from the cell size, the input slew as the Tr1 proxy) unless
// the caller already set it.
struct LintOptions {
  // The structural core alone (conditioning/model passes off): the default
  // `checks`, and what keeps screening a batch under 1% of its runtime.
  static lint::Options structural_only() {
    lint::Options checks;
    checks.conditioning = false;
    checks.model = false;
    return checks;
  }

  bool screen = false;
  bool report = false;
  lint::Severity fail_at = lint::Severity::error;
  lint::Options checks = structural_only();
};

// One aggressor in a coupled request: which group net it drives, how hard,
// and which way it switches relative to the victim's rising edge.  Group
// nets without an Aggressor entry are quiet (1x Miller, held low).
struct Aggressor {
  std::size_t net = 0;  // index into Request::group
  double cell_size = 75.0;
  double input_slew = 100e-12;
  core::AggressorSwitching switching = core::AggressorSwitching::opposite;
};

// One net-modeling job.  The default is the production shape: model-only,
// i.e. what a library-based static timing engine computes without any SPICE
// run.  The reference flags opt into the validation harness.
struct Request {
  std::string label;               // carried into diagnostics and failures
  double cell_size = 75.0;         // driver drive strength ("75" = 75X)
  double input_slew = 100e-12;     // full-swing input ramp time [s]
  net::Net net;                    // the interconnect the driver drives
  core::DriverModelOptions model;  // paper flow controls (Eq 1-9)

  // Coupled-net request: when `group` is non-empty, `net` must stay empty
  // and the engine models the victim net of the group instead — Ceff on the
  // Miller-decoupled equivalent, and (in reference mode) the full coupled
  // simulation with delay pushout and quiet-victim peak noise.
  net::CoupledGroup group;
  std::size_t victim = 0;            // index of the victim net in `group`
  std::vector<Aggressor> aggressors; // the switching neighbors
  bool noise = true;                 // coupled reference mode: also run the
                                     // quiet-victim noise simulation
  bool coupled() const { return !group.empty(); }

  bool reference = false;          // also run the transient reference sim
  bool far_end = true;             // replay the model at the far end (reference mode)
  bool one_ramp_baseline = false;  // also evaluate the one-ramp column (reference mode)
  bool keep_waveforms = false;     // retain sampled waveforms (reference/replay mode)

  // Model-only far-end replay: after the Ceff model converges, replay the
  // modeled PWL through the net and measure the dominant-path leaf
  // (Response::model_far / has_model_far) — the Fig-6 sink response without
  // the reference driver simulation.  This is the scenario-batching target:
  // in run_batch (BatchOptions::batch_scenarios) equal-topology replays are
  // grouped and advanced as one shared-factorization block, with waveforms
  // bitwise-identical to the per-slot path.  Incompatible with `reference`
  // (which already replays the far end), coupled groups, and non-default
  // tier policies.  keep_waveforms is honored (model_far_wave).
  bool far_end_replay = false;

  // Treat a non-converged Ceff fixed point in the primary model as a
  // per-slot convergence_failure instead of silently returning the last
  // iterate (the CeffIteration::converged flags stay inspectable either way).
  bool require_convergence = true;

  // Linear-solver backend for the reference transient (sim::SolverKind).
  // `automatic` lets the engine pick from the deck's size and sparsity; the
  // explicit kinds force a backend (validation and benchmarking).
  sim::SolverKind solver = sim::SolverKind::automatic;

  // Cooperative execution budget for this slot (util/budget.h): wall-clock
  // deadline, transient step budget, cancellation.
  // Default: unlimited.  The engine arms it at slot start and threads it
  // through every step/iteration loop; exhaustion surfaces as
  // deadline_exceeded / resource_exhausted.  Note: cold cell
  // characterization is not under the slot budget (run_batch/warm_cache
  // pre-characterize outside the slots); the modeling loops are.
  util::ExecBudget budget;

  // Retry-and-degrade policy (see DegradePolicy above).  Default-off.
  DegradePolicy degrade;

  // Static-diagnostics admission screen / report (see LintOptions above).
  // Default-off: requests run exactly as they did before lint existed.
  LintOptions lint;

  // Multi-fidelity cascade policy (src/tier/).  The default,
  // TierPolicy::reference, bypasses the cascade: the request behaves exactly
  // as it did before tiering existed (the `reference` flag decides between
  // the transient harness and the model-only Ceff flow, bitwise-identical —
  // enforced by the TierIdentity property family).  `balanced` and `fastest`
  // route to the cheapest admissible tier (tier/router.h) and ignore the
  // `reference` flag; the forced policies pin one tier for testing and
  // calibration.  A non-default policy is incompatible with reference=true
  // (use force_reference to ask for Tier C explicitly).
  tier::TierPolicy tier = tier::TierPolicy::reference;
};

struct Response {
  std::string label;

  core::DriverOutputModel model;  // full paper-flow diagnostics + waveform
  core::EdgeMetrics model_near;   // delay/slew measured on the modeled PWL

  // Reference-backed fields; only meaningful when has_reference is set.
  bool has_reference = false;
  core::EdgeMetrics ref_near;    // simulated driver output
  core::EdgeMetrics ref_far;     // simulated dominant-path leaf
  core::EdgeMetrics model_far;   // modeled PWL replayed through the net
  core::EdgeMetrics one_near;    // one-ramp baseline at the driver output
  core::DriverOutputModel one_ramp;

  // model_far is meaningful: set on reference slots that replayed the far
  // end (reference && far_end) and on model-only far_end_replay slots.
  bool has_model_far = false;

  // Coupled-request fields; only meaningful when has_coupling is set.
  bool has_coupling = false;
  double delay_pushout_model = 0.0;  // Miller-model near-end pushout vs 1x [s]
  // Reference-backed coupled fields (has_reference also set):
  double delay_pushout = 0.0;        // simulated far-end pushout vs 1x [s]
  double peak_noise = 0.0;           // quiet-victim far-end noise bump [V]
  core::EdgeMetrics base_near;       // simulated quiet-environment baseline
  core::EdgeMetrics base_far;

  // Populated when keep_waveforms is set; times are absolute deck time.
  wave::Waveform ref_near_wave;
  wave::Waveform ref_far_wave;
  wave::Waveform model_far_wave;
  double input_time_50 = 0.0;

  // Which linear-solver backend factored the reference deck.  Only
  // meaningful when has_solver is set (reference-backed slots); model-only
  // slots never run a transient, so they report no solver.
  bool has_solver = false;
  sim::SolverKind solver = sim::SolverKind::automatic;

  // Static diagnostics collected by the lint pass (Request::lint.report),
  // which runs once when the slot is admitted.  Every answer carries them,
  // a degraded one included; empty when reporting was not requested.
  std::vector<lint::Diagnostic> diagnostics;

  double elapsed_s = 0.0;  // wall time spent on this slot

  // Provenance: which rung produced the numbers (each rung stamps its own),
  // whether that is a degraded (lower-fidelity) answer, and the abandoned
  // attempts (in order) that forced it there, each naming the rung that
  // threw.  Exact answers have degraded == false and an attempt trail only
  // when a damped retry rescued a convergence failure.
  Fidelity fidelity = Fidelity::ceff_model;
  bool degraded = false;
  std::vector<Attempt> attempts;

  // Cascade provenance (Request::tier != TierPolicy::reference): the tier
  // that served the slot and how many escalations the router took to get
  // there (0 = first choice held; a retried or degraded answer keeps the
  // primary pass's count).  A balanced slot escalated to Tier C answers
  // from ref_near / ref_far (see answer_near); `model` rides along as a
  // diagnostic whose converged flags may be false.
  // Non-tiered requests report the legacy mapping (reference flag ?
  // Tier::reference : Tier::ceff, 0 escalations), and the moments_only
  // floor reports Tier::ceff: tier::Tier has no floor rung yet.
  tier::Tier tier = tier::Tier::ceff;
  std::size_t tier_escalations = 0;

  // The near-end edge the slot answers with: at reference fidelity the
  // simulated one (ref_near), else the model's (model_near).  Read this, not
  // model_near, when reporting one delay and slew per slot.
  const core::EdgeMetrics& answer_near() const {
    return fidelity == Fidelity::reference ? ref_near : model_near;
  }

  // Tier A coupled slots: the closed-form charge-sharing upper bound on the
  // quiet-victim crosstalk peak (tier::noise_bound).  Unlike peak_noise this
  // needs no transient; has_noise_bound marks it meaningful.
  bool has_noise_bound = false;
  double noise_bound = 0.0;
};

struct BatchOptions {
  // Reference-simulation fidelity (t_stop is auto-sized per scenario).
  tech::DeckOptions deck;
  // Grid used when a request's cell has to be characterized.
  charlib::CharacterizationGrid grid = charlib::CharacterizationGrid::standard();
  // Sweep pool width for run_batch (0 = one worker per hardware thread).
  unsigned n_threads = 0;
  // Shared-factorization scenario batching (sim/scenario_block.h): run_batch
  // defers far_end_replay transients, groups slots whose compiled decks are
  // scenario_group_equal (same topology and element values at full bit
  // precision — a one-ULP difference never aliases), and advances each group
  // as one blocked multi-RHS solve.  Waveforms and measurements are
  // bitwise-identical to the per-slot path (`off`), just faster; per-slot
  // isolation is preserved (a faulted lane never perturbs its group-mates).
  // Slots with a wall-clock limit or an enabled degrade policy never defer.
  bool batch_scenarios = true;
  // Test-only fault hook (testkit/faults.h chaos harness): when set, invoked
  // once per slot, at the end of its admission — after validation and the
  // lint screen, inside the armed budget — with the slot's batch index and
  // its ExecTracker.  May throw library errors or sleep in chunks
  // (checkpointing the tracker) to emulate faulty workers.  Faults inject at
  // slot entry, so retries and fallbacks never see the hook.  Never set
  // outside tests.
  std::function<void(std::size_t slot, util::ExecTracker& budget)> debug_slot_fault;
};

}  // namespace rlceff::api

#endif  // RLCEFF_API_REQUEST_H
