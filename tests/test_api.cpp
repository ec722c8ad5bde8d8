// Tests for the api::Engine facade: the Outcome error surface (codes,
// scenario labels, per-slot isolation), equivalence with the core flows it
// wraps, and the warm_cache / library persistence path.
//
// Fidelity is reduced (coarse decks, small characterization grids) to keep
// the suite fast; the bench binaries exercise the same paths at full
// fidelity.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/units.h"

namespace rlceff::api {
namespace {

using namespace rlceff::units;

BatchOptions fast_options() {
  BatchOptions opt;
  opt.deck.segments = 40;
  opt.deck.dt = 1 * ps;
  opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf, 5 * pf};
  return opt;
}

// Table 1's "5/1.6, 100X" inductive line: reliably a two-ramp case.
net::Net inductive_net() {
  return tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
}

Request inductive_request(std::string label) {
  Request r;
  r.label = std::move(label);
  r.cell_size = 100.0;
  r.input_slew = 100 * ps;
  r.net = inductive_net();
  return r;
}

class EngineFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() { engine_ = new Engine(tech::Technology::cmos180()); }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* EngineFixture::engine_ = nullptr;

TEST_F(EngineFixture, ModelOnlyMatchesDirectCoreFlow) {
  const Request req = inductive_request("model-only");
  const Outcome<Response> outcome = engine_->model(req, fast_options());
  ASSERT_TRUE(outcome.ok());
  const Response& r = outcome.value();
  EXPECT_EQ("model-only", r.label);
  EXPECT_FALSE(r.has_reference);
  EXPECT_GT(r.elapsed_s, 0.0);

  // The facade must compute exactly what the core flow computes.
  const charlib::CharacterizedDriver* driver = engine_->library().find(100.0);
  ASSERT_NE(nullptr, driver);
  const core::DriverOutputModel direct =
      core::model_driver_output(*driver, req.input_slew, req.net, req.model);
  EXPECT_EQ(direct.kind, r.model.kind);
  EXPECT_EQ(core::ModelKind::two_ramp, r.model.kind);
  EXPECT_DOUBLE_EQ(direct.t50, r.model.t50);
  EXPECT_DOUBLE_EQ(direct.ceff1.ceff, r.model.ceff1.ceff);
  EXPECT_DOUBLE_EQ(direct.ceff2.ceff, r.model.ceff2.ceff);
  // model_near is measured on the modeled PWL; its delay is the model's t50.
  EXPECT_NEAR(r.model.t50, r.model_near.delay, 1e-15);
  EXPECT_GT(r.model_near.slew, 0.0);
}

TEST_F(EngineFixture, ReferenceModeMatchesRunExperiment) {
  Request req = inductive_request("reference");
  req.reference = true;
  req.one_ramp_baseline = true;
  const BatchOptions opt = fast_options();
  const Outcome<Response> outcome = engine_->model(req, opt);
  ASSERT_TRUE(outcome.ok());
  const Response& r = outcome.value();
  ASSERT_TRUE(r.has_reference);

  // The same scenario through the core harness, with the same library, must
  // produce bitwise-identical metrics (this is what keeps the rebased
  // benches' numbers unchanged).
  core::ExperimentCase scenario;
  scenario.driver_size = req.cell_size;
  scenario.input_slew = req.input_slew;
  scenario.net = req.net;
  core::ExperimentOptions eopt;
  eopt.deck = opt.deck;
  eopt.grid = opt.grid;
  eopt.include_far_end = true;
  eopt.include_one_ramp = true;
  const core::ExperimentResult direct = core::run_experiment(
      engine_->technology(), engine_->library(), scenario, eopt);

  EXPECT_DOUBLE_EQ(direct.ref_near.delay, r.ref_near.delay);
  EXPECT_DOUBLE_EQ(direct.ref_near.slew, r.ref_near.slew);
  EXPECT_DOUBLE_EQ(direct.ref_far.delay, r.ref_far.delay);
  EXPECT_DOUBLE_EQ(direct.model_near.delay, r.model_near.delay);
  EXPECT_DOUBLE_EQ(direct.model_far.delay, r.model_far.delay);
  EXPECT_DOUBLE_EQ(direct.one_near.delay, r.one_near.delay);
  EXPECT_DOUBLE_EQ(direct.input_time_50, r.input_time_50);
}

TEST_F(EngineFixture, BatchIsolatesNonConvergentSlot) {
  // Slot 1 is deliberately non-convergent: one fixed-point iteration cannot
  // close an inductive case's Ceff1 gap.  The other slots must come back
  // successful — the acceptance shape: N-1 successes plus one structured
  // failure.
  std::vector<Request> requests;
  requests.push_back(inductive_request("good-0"));
  requests.push_back(inductive_request("bad-1"));
  requests[1].model.iteration.max_iter = 1;
  requests.push_back(inductive_request("good-2"));

  const std::vector<Outcome<Response>> results =
      engine_->run_batch(requests, fast_options());
  ASSERT_EQ(3u, results.size());

  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[2].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(ErrorCode::convergence_failure, results[1].error().code);
  EXPECT_EQ("bad-1", results[1].error().scenario);
  EXPECT_NE(std::string::npos, results[1].error().message.find("did not converge"))
      << results[1].error().message;

  // Opting out of the convergence gate returns the last iterate instead,
  // with the converged flag still inspectable.
  requests[1].require_convergence = false;
  const Outcome<Response> lax = engine_->model(requests[1], fast_options());
  ASSERT_TRUE(lax.ok());
  EXPECT_FALSE(lax.value().model.ceff1.converged);
}

TEST_F(EngineFixture, InvalidRequestsFailWithStructuredErrors) {
  Request empty_net = inductive_request("empty-net");
  empty_net.net = net::Net();
  Request bad_slew = inductive_request("bad-slew");
  bad_slew.input_slew = -1.0;
  Request waveforms_without_reference = inductive_request("no-ref-waveforms");
  waveforms_without_reference.keep_waveforms = true;

  const std::vector<Request> requests = {empty_net, inductive_request("good"),
                                         bad_slew, waveforms_without_reference};
  const std::vector<Outcome<Response>> results =
      engine_->run_batch(requests, fast_options());
  ASSERT_EQ(4u, results.size());

  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(ErrorCode::invalid_request, results[0].error().code);
  EXPECT_EQ("empty-net", results[0].error().scenario);

  EXPECT_TRUE(results[1].ok());

  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(ErrorCode::invalid_request, results[2].error().code);
  EXPECT_EQ("bad-slew", results[2].error().scenario);

  ASSERT_FALSE(results[3].ok());
  EXPECT_EQ(ErrorCode::invalid_request, results[3].error().code);
}

TEST_F(EngineFixture, OutcomeValueThrowsLabeledErrorOnFailure) {
  Request req = inductive_request("unwrapped-failure");
  req.net = net::Net();
  const Outcome<Response> outcome = engine_->model(req, fast_options());
  ASSERT_FALSE(outcome.ok());
  try {
    (void)outcome.value();
    FAIL() << "value() on a failed outcome must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string::npos, std::string(e.what()).find("unwrapped-failure"))
        << e.what();
    EXPECT_NE(std::string::npos, std::string(e.what()).find("invalid_request"))
        << e.what();
  }

  // The mirror-image misuse: error() on a successful outcome throws too.
  const Outcome<Response> good =
      engine_->model(inductive_request("good"), fast_options());
  ASSERT_TRUE(good.ok());
  EXPECT_THROW((void)good.error(), Error);
}

TEST_F(EngineFixture, CoupledSingleNetGroupMatchesPlainRequest) {
  // A group of one is the degenerate coupled case: the engine must compute
  // exactly the single-net model for it.
  const Request plain = inductive_request("plain");
  Request coupled = inductive_request("coupled-single");
  coupled.net = net::Net();
  coupled.group = net::CoupledGroup::single(inductive_net());

  const Response a = engine_->model(plain, fast_options()).value();
  const Response b = engine_->model(coupled, fast_options()).value();
  EXPECT_TRUE(b.has_coupling);
  EXPECT_FALSE(a.has_coupling);
  EXPECT_DOUBLE_EQ(a.model.t50, b.model.t50);
  EXPECT_DOUBLE_EQ(a.model.ceff1.ceff, b.model.ceff1.ceff);
  EXPECT_DOUBLE_EQ(a.model_near.delay, b.model_near.delay);
  EXPECT_DOUBLE_EQ(a.model_near.slew, b.model_near.slew);
  EXPECT_DOUBLE_EQ(0.0, b.delay_pushout_model);
}

TEST_F(EngineFixture, CoupledRequestsModelAndIsolatePerSlot) {
  auto coupled_request = [](std::string label,
                            core::AggressorSwitching switching) {
    Request r;
    r.label = std::move(label);
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    net::CoupledGroup group;
    group.add_net(inductive_net(), "victim");
    group.add_net(inductive_net(), "aggr");
    group.couple_capacitance({0, 0}, {1, 0}, 150 * ff);
    r.group = std::move(group);
    r.victim = 0;
    r.aggressors = {{1, 100.0, 100 * ps, switching}};
    return r;
  };

  std::vector<Request> requests;
  requests.push_back(coupled_request("worst", core::AggressorSwitching::opposite));
  requests.push_back(coupled_request("bad-victim", core::AggressorSwitching::quiet));
  requests[1].victim = 7;  // out of range: must fail alone
  requests.push_back(coupled_request("best",
                                     core::AggressorSwitching::same_direction));

  const std::vector<Outcome<Response>> results =
      engine_->run_batch(requests, fast_options());
  ASSERT_EQ(3u, results.size());

  ASSERT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(ErrorCode::invalid_request, results[1].error().code);
  EXPECT_NE(std::string::npos, results[1].error().message.find("victim index"))
      << results[1].error().message;
  ASSERT_TRUE(results[2].ok());

  // 2x Miller slows the victim, 0x speeds it up; the model must order them.
  const Response& worst = results[0].value();
  const Response& best = results[2].value();
  EXPECT_TRUE(worst.has_coupling);
  EXPECT_GT(worst.delay_pushout_model, 0.0);
  EXPECT_LT(best.delay_pushout_model, 0.0);
  EXPECT_GT(worst.model_near.delay, best.model_near.delay);

  // Aggressors without a coupled group are rejected up front.
  Request stray = inductive_request("stray-aggressor");
  stray.aggressors = {{0, 75.0, 100 * ps, core::AggressorSwitching::quiet}};
  const Outcome<Response> rejected = engine_->model(stray, fast_options());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(ErrorCode::invalid_request, rejected.error().code);
}

TEST(OutcomeTaxonomy, BudgetErrorsClassifyToTheirCodes) {
  EXPECT_STREQ("deadline_exceeded", to_string(ErrorCode::deadline_exceeded));
  EXPECT_STREQ("resource_exhausted", to_string(ErrorCode::resource_exhausted));
  EXPECT_EQ(ErrorCode::deadline_exceeded,
            describe_failure(std::make_exception_ptr(DeadlineError("late")), "s").code);
  // CancelledError is-a DeadlineError: same code, distinguishable message.
  EXPECT_EQ(ErrorCode::deadline_exceeded,
            describe_failure(std::make_exception_ptr(CancelledError("stop")), "s").code);
  EXPECT_EQ(ErrorCode::resource_exhausted,
            describe_failure(std::make_exception_ptr(BudgetError("spent")), "s").code);
}

TEST_F(EngineFixture, BatchIsolatesDeadlineSlot) {
  // The doomed slot's sub-nanosecond deadline expires at its very first
  // checkpoint; the N-1 healthy neighbors must come back bitwise identical
  // to a deadline-free run.
  std::vector<Request> requests;
  requests.push_back(inductive_request("good-0"));
  requests.push_back(inductive_request("doomed-1"));
  requests[1].budget.wall_limit_s = 1e-12;
  requests.push_back(inductive_request("good-2"));

  const std::vector<Outcome<Response>> results =
      engine_->run_batch(requests, fast_options());
  ASSERT_EQ(3u, results.size());

  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(ErrorCode::deadline_exceeded, results[1].error().code);
  EXPECT_EQ("doomed-1", results[1].error().scenario);
  EXPECT_NE(std::string::npos, results[1].error().message.find("deadline"))
      << results[1].error().message;
  // The failure reports how long the slot actually ran — promptly.
  EXPECT_GE(results[1].error().elapsed_s, 0.0);
  EXPECT_LT(results[1].error().elapsed_s, 1.0);

  const Response clean =
      engine_->model(inductive_request("clean"), fast_options()).value();
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(results[k].ok()) << "slot " << k;
    EXPECT_DOUBLE_EQ(clean.model_near.delay, results[k].value().model_near.delay);
    EXPECT_DOUBLE_EQ(clean.model_near.slew, results[k].value().model_near.slew);
    EXPECT_DOUBLE_EQ(clean.model.ceff1.ceff, results[k].value().model.ceff1.ceff);
    EXPECT_FALSE(results[k].value().degraded);
  }
}

TEST_F(EngineFixture, UnwrapNamesDeadlineCode) {
  Request req = inductive_request("late-slot");
  req.budget.wall_limit_s = 1e-12;
  const Outcome<Response> outcome = engine_->model(req, fast_options());
  ASSERT_FALSE(outcome.ok());
  try {
    (void)outcome.value();
    FAIL() << "value() on a deadline-failed outcome must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string::npos, std::string(e.what()).find("late-slot")) << e.what();
    EXPECT_NE(std::string::npos, std::string(e.what()).find("deadline_exceeded"))
        << e.what();
  }
}

TEST_F(EngineFixture, StepBudgetExhaustionIsResourceExhausted) {
  Request req = inductive_request("step-starved");
  req.reference = true;
  req.budget.max_transient_steps = 16;
  const Outcome<Response> outcome = engine_->model(req, fast_options());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(ErrorCode::resource_exhausted, outcome.error().code);
  EXPECT_NE(std::string::npos, outcome.error().message.find("step budget"))
      << outcome.error().message;
}

TEST_F(EngineFixture, CancelledSlotFailsAndNeverDegrades) {
  Request req = inductive_request("cancelled");
  util::CancelToken token = util::CancelToken::source();
  token.request_cancel();
  req.budget.cancel = token;
  req.degrade.enabled = true;  // must not buy the cancelled slot an answer
  const Outcome<Response> outcome = engine_->model(req, fast_options());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(ErrorCode::deadline_exceeded, outcome.error().code);
  EXPECT_NE(std::string::npos, outcome.error().message.find("cancelled"))
      << outcome.error().message;
}

TEST_F(EngineFixture, DegradeLadderFallsToCeffModelThenMomentsFloor) {
  const Response plain =
      engine_->model(inductive_request("plain"), fast_options()).value();

  // Tier 2: a step-starved reference request falls back to the table-driven
  // Ceff model — flagged degraded, bitwise equal to the plain model answer.
  Request ref = inductive_request("degraded-ref");
  ref.reference = true;
  ref.budget.max_transient_steps = 16;
  ref.degrade.enabled = true;
  const Outcome<Response> tier2 = engine_->model(ref, fast_options());
  ASSERT_TRUE(tier2.ok());
  const Response& r2 = tier2.value();
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(Fidelity::ceff_model, r2.fidelity);
  EXPECT_FALSE(r2.has_reference);
  ASSERT_FALSE(r2.attempts.empty());
  EXPECT_EQ(Fidelity::reference, r2.attempts.front().fidelity);
  EXPECT_EQ(ErrorCode::resource_exhausted, r2.attempts.front().code);
  EXPECT_DOUBLE_EQ(plain.model_near.delay, r2.model_near.delay);
  EXPECT_DOUBLE_EQ(plain.model.ceff1.ceff, r2.model.ceff1.ceff);

  // The floor: an instant deadline on a model-only request lands on the
  // moments-only estimate — the cell table at Ctotal, one-ramp, degraded.
  Request floored = inductive_request("floored");
  floored.budget.wall_limit_s = 1e-12;
  floored.degrade.enabled = true;
  const Outcome<Response> tier3 = engine_->model(floored, fast_options());
  ASSERT_TRUE(tier3.ok());
  const Response& r3 = tier3.value();
  EXPECT_TRUE(r3.degraded);
  EXPECT_EQ(Fidelity::moments_only, r3.fidelity);
  EXPECT_EQ(core::ModelKind::one_ramp, r3.model.kind);
  EXPECT_DOUBLE_EQ(inductive_net().total_capacitance(), r3.model.ceff1.ceff);
  ASSERT_FALSE(r3.attempts.empty());
  EXPECT_EQ(ErrorCode::deadline_exceeded, r3.attempts.front().code);
  // Documented envelope: Ceff <= Ctotal and monotone tables make the floor
  // an upper bound on the Ceff-model delay.
  EXPECT_GE(r3.model_near.delay, plain.model_near.delay - 1e-15);
}

TEST_F(EngineFixture, ConvergenceFailureDegradesToTheFloor) {
  // A zero iteration cap returns every Ceff solve's start unconverged;
  // without a policy that is a convergence_failure.
  Request req = inductive_request("capped");
  req.model.iteration.max_iter = 0;
  const Outcome<Response> plain = engine_->model(req, fast_options());
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(ErrorCode::convergence_failure, plain.error().code);

  // With the policy the slot makes one pass and no retry (retry_damping is
  // ignored): the moments-only floor answers, degraded, and the attempt
  // trail records the failed pass.
  Request floored = req;
  floored.degrade.enabled = true;
  floored.degrade.retry_damping = 1.0;
  const Outcome<Response> outcome = engine_->model(floored, fast_options());
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const Response& r = outcome.value();
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(Fidelity::moments_only, r.fidelity);
  ASSERT_EQ(1u, r.attempts.size());
  EXPECT_EQ(Fidelity::ceff_model, r.attempts.front().fidelity);
  EXPECT_EQ(ErrorCode::convergence_failure, r.attempts.front().code);
}

TEST_F(EngineFixture, DegradedAnswerKeepsLintReport) {
  // The lint pass runs once, at admission, and its findings ride on
  // whichever rung answers: an instant deadline lands the slot on the
  // moments-only floor with the exact answer's report.
  Request req = inductive_request("lint-floor");
  req.lint.report = true;
  req.lint.checks = lint::Options{};  // conditioning + model passes
  const Response exact = engine_->model(req, fast_options()).value();
  ASSERT_FALSE(exact.diagnostics.empty());

  req.budget.wall_limit_s = 1e-12;
  req.degrade.enabled = true;
  const Outcome<Response> floored = engine_->model(req, fast_options());
  ASSERT_TRUE(floored.ok()) << floored.error().message;
  EXPECT_TRUE(floored.value().degraded);
  EXPECT_EQ(Fidelity::moments_only, floored.value().fidelity);
  const std::vector<lint::Diagnostic>& kept = floored.value().diagnostics;
  ASSERT_EQ(exact.diagnostics.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(exact.diagnostics[i].code, kept[i].code);
    EXPECT_EQ(exact.diagnostics[i].message, kept[i].message);
  }
}

TEST_F(EngineFixture, FaultHookRunsOncePerSlot) {
  // Admission (validation, lint screen, fault hook) runs once per slot: a
  // slot whose pass fails to converge, and that lands on the moments-only
  // floor, meets the hook once.
  Request req = inductive_request("hook-once");
  req.model.iteration.max_iter = 0;
  req.degrade.enabled = true;
  BatchOptions opt = fast_options();
  std::size_t calls = 0;
  opt.debug_slot_fault = [&calls](std::size_t, util::ExecTracker&) { ++calls; };
  const Outcome<Response> floored = engine_->model(req, opt);
  ASSERT_TRUE(floored.ok()) << floored.error().message;
  EXPECT_EQ(Fidelity::moments_only, floored.value().fidelity);
  EXPECT_EQ(1u, floored.value().attempts.size());
  EXPECT_EQ(1u, calls);
}

TEST(EngineCache, CharacterizationFailureIsReportedPerSlot) {
  // An unusable grid makes characterization itself throw.  run_batch must
  // not propagate that: every slot needing the size carries the error (and
  // the characterization is attempted once, not once per slot).
  Engine engine{tech::Technology::cmos180()};
  BatchOptions opt = fast_options();
  opt.grid.input_slews.clear();
  opt.grid.loads.clear();

  const std::vector<Request> requests = {inductive_request("a"),
                                         inductive_request("b")};
  const std::vector<Outcome<Response>> results = engine.run_batch(requests, opt);
  ASSERT_EQ(2u, results.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    ASSERT_FALSE(results[k].ok()) << "slot " << k;
    EXPECT_EQ(ErrorCode::model_error, results[k].error().code);
    EXPECT_FALSE(results[k].error().message.empty());
  }
  EXPECT_EQ("a", results[0].error().scenario);
  EXPECT_EQ("b", results[1].error().scenario);
  EXPECT_EQ(0u, engine.library().size());
}

TEST(EngineCache, InfiniteSizeAndSlewAreInvalidAndNeverCharacterized) {
  // +inf passes a bare `> 0` test; it must fail validation like any other
  // bad size or slew, and run_batch must not characterize a cell for it —
  // nor for a slot validate() refuses for any other reason, whatever its
  // size and slew.
  Engine engine{tech::Technology::cmos180()};
  const double inf = std::numeric_limits<double>::infinity();
  Request huge_cell = inductive_request("inf-size");
  huge_cell.cell_size = inf;
  Request slow_input = inductive_request("inf-slew");
  slow_input.input_slew = inf;
  Request empty_net = inductive_request("empty-net");
  empty_net.net = net::Net();
  Request lost_victim = inductive_request("lost-victim");
  lost_victim.net = net::Net();
  lost_victim.group.add_net(inductive_net(), "victim");
  lost_victim.group.add_net(inductive_net(), "aggr");
  lost_victim.group.couple_capacitance({0, 0}, {1, 0}, 150 * ff);
  lost_victim.victim = 2;
  Request stray_aggressor = inductive_request("stray-aggressor");
  stray_aggressor.aggressors = {{1, 100.0, 100 * ps, core::AggressorSwitching::opposite}};

  const std::vector<Request> requests = {huge_cell, slow_input, empty_net, lost_victim,
                                         stray_aggressor};
  const std::vector<Outcome<Response>> results =
      engine.run_batch(requests, fast_options());
  ASSERT_EQ(5u, results.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    ASSERT_FALSE(results[k].ok()) << "slot " << k;
    EXPECT_EQ(ErrorCode::invalid_request, results[k].error().code)
        << results[k].error().message;
  }
  EXPECT_EQ(0u, engine.library().size());

  // The same holds for an aggressor's size and slew.
  Request coupled = inductive_request("inf-aggressor");
  coupled.net = net::Net();
  coupled.group.add_net(inductive_net(), "victim");
  coupled.group.add_net(inductive_net(), "aggr");
  coupled.group.couple_capacitance({0, 0}, {1, 0}, 150 * ff);
  coupled.victim = 0;
  coupled.aggressors = {{1, inf, 100 * ps, core::AggressorSwitching::opposite}};
  const Outcome<Response> inf_aggressor_size = engine.model(coupled, fast_options());
  coupled.aggressors = {{1, 100.0, inf, core::AggressorSwitching::opposite}};
  const Outcome<Response> inf_aggressor_slew = engine.model(coupled, fast_options());
  for (const Outcome<Response>* o : {&inf_aggressor_size, &inf_aggressor_slew}) {
    ASSERT_FALSE(o->ok());
    EXPECT_EQ(ErrorCode::invalid_request, o->error().code) << o->error().message;
  }
  EXPECT_EQ(0u, engine.library().size());
}

TEST(EngineCache, RefusedSlotsLeaveOnlyTheirValidBatchmatesCharacterized) {
  // Refused slots of other sizes sit on both sides of a valid one: the
  // batch characterizes the valid slot's size alone and answers it.
  Engine engine{tech::Technology::cmos180()};
  Request empty_net = inductive_request("empty-net");
  empty_net.cell_size = 75.0;
  empty_net.net = net::Net();
  Request valid = inductive_request("valid");
  valid.cell_size = 50.0;
  Request stray_aggressor = inductive_request("stray-aggressor");
  stray_aggressor.cell_size = 25.0;
  stray_aggressor.aggressors = {{1, 100.0, 100 * ps, core::AggressorSwitching::opposite}};

  const std::vector<Request> requests = {empty_net, valid, stray_aggressor};
  const std::vector<Outcome<Response>> results =
      engine.run_batch(requests, fast_options());
  ASSERT_EQ(3u, results.size());
  ASSERT_TRUE(results[1].ok()) << results[1].error().message;
  EXPECT_EQ("valid", results[1].value().label);
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_FALSE(results[k].ok()) << "slot " << k;
    EXPECT_EQ(ErrorCode::invalid_request, results[k].error().code)
        << results[k].error().message;
  }
  EXPECT_EQ(1u, engine.library().size());
  EXPECT_NE(nullptr, engine.library().find(50.0));
}

TEST(EngineCache, WarmCacheAndLibraryRoundTrip) {
  const BatchOptions opt = fast_options();
  Engine first{tech::Technology::cmos180()};
  first.warm_cache({50.0}, opt.grid);
  ASSERT_NE(nullptr, first.library().find(50.0));

  Request req = inductive_request("round-trip");
  req.cell_size = 50.0;
  const Response before = first.model(req, opt).value();

  const std::string path = ::testing::TempDir() + "rlceff_api_roundtrip.lib";
  first.save_library(path);

  // A fresh engine picks the characterization up from disk: no cell is
  // characterized again, and the model comes out bitwise identical.
  Engine second{tech::Technology::cmos180()};
  EXPECT_FALSE(second.load_library(path + ".does-not-exist"));
  ASSERT_TRUE(second.load_library(path));
  ASSERT_NE(nullptr, second.library().find(50.0));
  EXPECT_EQ(1u, second.library().size());

  const Response after = second.model(req, opt).value();
  EXPECT_DOUBLE_EQ(before.model.t50, after.model.t50);
  EXPECT_DOUBLE_EQ(before.model.ceff1.ceff, after.model.ceff1.ceff);
  EXPECT_DOUBLE_EQ(before.model_near.slew, after.model_near.slew);

  std::remove(path.c_str());
}

// ------------------------------------------------- lint admission screen ---

TEST_F(EngineFixture, LintOffByDefaultAndReportLeavesModelUntouched) {
  // Default request: no screen, no report, no diagnostics on the response.
  const Response plain =
      engine_->model(inductive_request("lint-off"), fast_options()).value();
  EXPECT_TRUE(plain.diagnostics.empty());

  // Opting into the report (deep passes on) attaches findings — here the
  // conditioning advisory and the Eq 9 verdict — without changing the model.
  Request req = inductive_request("lint-report");
  req.lint.report = true;
  req.lint.checks = lint::Options{};  // conditioning + model passes
  const Response reported = engine_->model(req, fast_options()).value();
  ASSERT_FALSE(reported.diagnostics.empty());
  bool advisory = false;
  bool eq9 = false;
  for (const lint::Diagnostic& d : reported.diagnostics) {
    advisory |= d.code == lint::Code::solver_advisory;
    eq9 |= d.code == lint::Code::inductance_significant ||
           d.code == lint::Code::inductance_screened;
    EXPECT_NE(lint::Severity::error, d.severity) << lint::format(d);
  }
  EXPECT_TRUE(advisory);
  EXPECT_TRUE(eq9);  // the engine filled the Rs / Tr1 driver context
  EXPECT_DOUBLE_EQ(plain.model.t50, reported.model.t50);
  EXPECT_DOUBLE_EQ(plain.model_near.delay, reported.model_near.delay);
}

TEST_F(EngineFixture, LintScreenRejectsPerSlotAndNeverDegrades) {
  // Slot 0: a legal but near-limit coupled pair (accumulated k = 0.97).  At
  // fail_at = warn with the deep checks on, the screen must reject it before
  // any solve — even with degradation enabled, because lint_rejected is
  // deliberately not a degradable failure.
  Request hot;
  hot.label = "hot-pair";
  {
    net::CoupledGroup group;
    group.add_net(inductive_net(), "victim");
    group.add_net(inductive_net(), "aggr");
    group.couple_inductance({0, 0}, {1, 0}, 0.97);
    hot.group = std::move(group);
  }
  hot.victim = 0;
  hot.noise = false;
  hot.lint.screen = true;
  hot.lint.report = true;
  hot.lint.fail_at = lint::Severity::warn;
  hot.lint.checks = lint::Options{};
  hot.degrade.enabled = true;  // must not buy the rejected slot an answer

  // Slot 1: the same screen on a healthy net passes untouched.
  Request good = inductive_request("screened-good");
  good.lint.screen = true;

  std::vector<Request> requests;
  requests.push_back(std::move(hot));
  requests.push_back(std::move(good));
  const std::vector<Outcome<Response>> results =
      engine_->run_batch(requests, fast_options());
  ASSERT_EQ(2u, results.size());

  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(ErrorCode::lint_rejected, results[0].error().code);
  EXPECT_EQ("hot-pair", results[0].error().scenario);
  EXPECT_NE(std::string::npos,
            results[0].error().message.find("mutual_near_limit"))
      << results[0].error().message;

  ASSERT_TRUE(results[1].ok());
  EXPECT_FALSE(results[1].value().degraded);
  const Response clean =
      engine_->model(inductive_request("screen-ref"), fast_options()).value();
  EXPECT_DOUBLE_EQ(clean.model_near.delay, results[1].value().model_near.delay);
}

// ---- far_end_replay + scenario batching ---------------------------------

std::uint64_t api_dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_wave_bitwise(const wave::Waveform& a, const wave::Waveform& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(api_dbits(a.time(i)), api_dbits(b.time(i))) << "t[" << i << "]";
    ASSERT_EQ(api_dbits(a.value(i)), api_dbits(b.value(i))) << "v[" << i << "]";
  }
}

Request replay_request(std::string label, double input_slew) {
  Request r = inductive_request(std::move(label));
  r.input_slew = input_slew;
  r.far_end_replay = true;
  r.keep_waveforms = true;
  return r;
}

TEST_F(EngineFixture, FarEndReplayValidation) {
  Request with_reference = replay_request("replay-ref", 100 * ps);
  with_reference.reference = true;
  ASSERT_FALSE(engine_->model(with_reference, fast_options()).ok());

  Request tiered = replay_request("replay-tier", 100 * ps);
  tiered.tier = tier::TierPolicy::balanced;
  ASSERT_FALSE(engine_->model(tiered, fast_options()).ok());

  Request coupled = replay_request("replay-coupled", 100 * ps);
  coupled.net = net::Net();
  coupled.group = net::CoupledGroup::single(inductive_net());
  ASSERT_FALSE(engine_->model(coupled, fast_options()).ok());
}

TEST_F(EngineFixture, FarEndReplayProducesModelFar) {
  const Outcome<Response> outcome =
      engine_->model(replay_request("replay-single", 100 * ps), fast_options());
  ASSERT_TRUE(outcome.ok());
  const Response& r = outcome.value();
  EXPECT_FALSE(r.has_reference);
  ASSERT_TRUE(r.has_model_far);
  EXPECT_TRUE(r.has_solver);
  EXPECT_NE(sim::SolverKind::automatic, r.solver);
  EXPECT_GT(r.model_far.delay, 0.0);
  EXPECT_GT(r.model_far.slew, 0.0);
  EXPECT_GT(r.model_far_wave.size(), 0u);
  // The replayed far end arrives after the near-end model edge.
  EXPECT_GT(r.model_far.delay, r.model_near.delay);
}

TEST_F(EngineFixture, BatchedReplayBitwiseMatchesPerSlot) {
  // Five equal-topology slots (only the slew differs -> one factorization
  // group) plus one on a different wire (its own group).
  std::vector<Request> requests;
  for (double slew : {40 * ps, 80 * ps, 120 * ps, 160 * ps, 200 * ps}) {
    requests.push_back(
        replay_request("replay-" + std::to_string(int(slew / ps)), slew));
  }
  Request other = replay_request("replay-other-net", 100 * ps);
  other.net = tech::line_net(*tech::find_paper_wire_case(3.0, 1.6), 20 * ff);
  requests.push_back(other);

  BatchOptions batched = fast_options();
  batched.batch_scenarios = true;
  BatchOptions per_slot = fast_options();
  per_slot.batch_scenarios = false;

  const std::vector<Outcome<Response>> a = engine_->run_batch(requests, batched);
  const std::vector<Outcome<Response>> b = engine_->run_batch(requests, per_slot);
  ASSERT_EQ(requests.size(), a.size());
  ASSERT_EQ(requests.size(), b.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << requests[i].label << ": "
                           << (a[i].ok() ? "" : a[i].error().message);
    ASSERT_TRUE(b[i].ok()) << requests[i].label << ": "
                           << (b[i].ok() ? "" : b[i].error().message);
    const Response& ra = a[i].value();
    const Response& rb = b[i].value();
    ASSERT_TRUE(ra.has_model_far);
    ASSERT_TRUE(rb.has_model_far);
    EXPECT_EQ(api_dbits(ra.model_far.delay), api_dbits(rb.model_far.delay))
        << requests[i].label;
    EXPECT_EQ(api_dbits(ra.model_far.slew), api_dbits(rb.model_far.slew))
        << requests[i].label;
    EXPECT_EQ(rb.solver, ra.solver);
    expect_wave_bitwise(ra.model_far_wave, rb.model_far_wave);
  }
}

TEST_F(EngineFixture, ReplayEdgeStopFollowsKeepWaveformsOnly) {
  // BatchOptions::deck may arrive with the measured-edge stop on; the Engine
  // sets it from keep_waveforms alone.  Kept replays stay full length, and a
  // stopped replay's far edge is bitwise the full-horizon one, batched or
  // per slot.
  const std::vector<Request> kept = {replay_request("stop-40", 40 * ps),
                                     replay_request("stop-160", 160 * ps)};
  std::vector<Request> dropped = kept;
  for (Request& r : dropped) r.keep_waveforms = false;

  const std::vector<Outcome<Response>> full = engine_->run_batch(kept, fast_options());
  for (const bool batch : {true, false}) {
    BatchOptions asked = fast_options();
    asked.deck.sim.edge_stop.vdd = engine_->technology().vdd;
    asked.batch_scenarios = batch;
    const std::vector<Outcome<Response>> k = engine_->run_batch(kept, asked);
    const std::vector<Outcome<Response>> d = engine_->run_batch(dropped, asked);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      ASSERT_TRUE(full[i].ok() && k[i].ok() && d[i].ok()) << kept[i].label;
      expect_wave_bitwise(full[i].value().model_far_wave, k[i].value().model_far_wave);
      EXPECT_TRUE(d[i].value().model_far_wave.empty());
      EXPECT_EQ(api_dbits(full[i].value().model_far.delay),
                api_dbits(d[i].value().model_far.delay))
          << kept[i].label;
      EXPECT_EQ(api_dbits(full[i].value().model_far.slew),
                api_dbits(d[i].value().model_far.slew))
          << kept[i].label;
    }
  }
}

TEST_F(EngineFixture, BatchedReplayIsolatesBudgetedSlot) {
  // Slot 1 carries a transient step budget too small for its replay: it must
  // fail with resource_exhausted while its group-mates stay bitwise equal to
  // an unfaulted batch.
  std::vector<Request> requests;
  for (double slew : {50 * ps, 100 * ps, 150 * ps}) {
    requests.push_back(
        replay_request("iso-" + std::to_string(int(slew / ps)), slew));
  }
  const std::vector<Outcome<Response>> clean =
      engine_->run_batch(requests, fast_options());
  for (const auto& o : clean) ASSERT_TRUE(o.ok());

  requests[1].budget.max_transient_steps = 10;
  const std::vector<Outcome<Response>> faulted =
      engine_->run_batch(requests, fast_options());
  ASSERT_FALSE(faulted[1].ok());
  EXPECT_EQ(ErrorCode::resource_exhausted, faulted[1].error().code);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(faulted[i].ok()) << i;
    EXPECT_EQ(api_dbits(clean[i].value().model_far.delay),
              api_dbits(faulted[i].value().model_far.delay));
    expect_wave_bitwise(clean[i].value().model_far_wave,
                        faulted[i].value().model_far_wave);
  }
}

void expect_edge_bitwise(const core::EdgeMetrics& a, const core::EdgeMetrics& b,
                         const char* what) {
  EXPECT_EQ(api_dbits(a.delay), api_dbits(b.delay)) << what << " delay";
  EXPECT_EQ(api_dbits(a.slew), api_dbits(b.slew)) << what << " slew";
}

TEST_F(EngineFixture, DeferredReplayMetersTheSlotBudgetExactly) {
  // A deferred replay charges the tracker its slot's pass armed, one step
  // per accepted step of its block lane, exactly as the inline replay
  // charges it per scalar step: the smallest step budget at which
  // Engine::model() answers the slot is the one at which the same slot,
  // deferred into a block between two equal-topology mates, answers.  Kept
  // waveforms run the full horizon (the middle lane ends on the block's tail
  // step); dropped ones end at the measured-edge stop.
  for (const bool keep : {true, false}) {
    SCOPED_TRACE(keep ? "kept waveforms" : "edge stop");
    std::vector<Request> requests = {replay_request("mate-60", 60 * ps),
                                     replay_request("metered", 100 * ps),
                                     replay_request("mate-160", 160 * ps)};
    for (Request& r : requests) r.keep_waveforms = keep;
    const auto with_budget = [&](std::int64_t steps) {
      std::vector<Request> budgeted = requests;
      budgeted[1].budget.max_transient_steps = steps;
      return budgeted;
    };
    const auto answers = [&](std::int64_t steps) {
      return engine_->model(with_budget(steps)[1], fast_options()).ok();
    };

    // Bisect for the smallest budget the inline replay answers at.
    ASSERT_FALSE(answers(1));
    std::int64_t lo = 1;
    std::int64_t hi = 2;
    while (!answers(hi)) {
      lo = hi;
      hi *= 2;
      ASSERT_LT(hi, std::int64_t{1} << 24);
    }
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      (answers(mid) ? hi : lo) = mid;
    }
    const Outcome<Response> inline_answer =
        engine_->model(with_budget(hi)[1], fast_options());
    ASSERT_TRUE(inline_answer.ok());
    const Outcome<Response> inline_short =
        engine_->model(with_budget(hi - 1)[1], fast_options());
    ASSERT_FALSE(inline_short.ok());
    EXPECT_EQ(ErrorCode::resource_exhausted, inline_short.error().code);

    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(workers) + " worker(s)");
      BatchOptions options = fast_options();
      options.n_threads = workers;
      const std::vector<Outcome<Response>> clean = engine_->run_batch(requests, options);
      const std::vector<Outcome<Response>> at = engine_->run_batch(with_budget(hi), options);
      const std::vector<Outcome<Response>> below =
          engine_->run_batch(with_budget(hi - 1), options);

      ASSERT_TRUE(at[1].ok()) << at[1].error().message;
      expect_edge_bitwise(inline_answer.value().model_far, at[1].value().model_far,
                          "model_far");
      expect_wave_bitwise(inline_answer.value().model_far_wave,
                          at[1].value().model_far_wave);
      ASSERT_FALSE(below[1].ok());
      EXPECT_EQ(ErrorCode::resource_exhausted, below[1].error().code);
      for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
        ASSERT_TRUE(clean[i].ok() && at[i].ok() && below[i].ok()) << requests[i].label;
        for (const auto* run : {&at, &below}) {
          expect_edge_bitwise(clean[i].value().model_far, (*run)[i].value().model_far,
                              "mate model_far");
          expect_wave_bitwise(clean[i].value().model_far_wave,
                              (*run)[i].value().model_far_wave);
        }
      }
    }
  }
}

TEST_F(EngineFixture, FarEndReplayEqualsTheTierCFarEnd) {
  // One net, slew and cell, waveforms kept: a far_end_replay slot replays
  // the same model through the same deck as the Tier-C harness's replay
  // column (Request::reference), so every modeled number agrees bit for bit,
  // per slot and batched (where a mate puts the replay into a block).
  Request replay = replay_request("replay", 100 * ps);
  Request reference = inductive_request("reference");
  reference.reference = true;
  reference.keep_waveforms = true;
  const auto expect_same = [](const Response& a, const Response& b) {
    EXPECT_EQ(api_dbits(a.model.t50), api_dbits(b.model.t50));
    EXPECT_EQ(api_dbits(a.model.ceff1.ceff), api_dbits(b.model.ceff1.ceff));
    EXPECT_EQ(api_dbits(a.model.ceff2.ceff), api_dbits(b.model.ceff2.ceff));
    EXPECT_EQ(api_dbits(a.model.ceff3.ceff), api_dbits(b.model.ceff3.ceff));
    expect_edge_bitwise(a.model_near, b.model_near, "model_near");
    ASSERT_TRUE(a.has_model_far && b.has_model_far);
    expect_edge_bitwise(a.model_far, b.model_far, "model_far");
    EXPECT_EQ(api_dbits(a.input_time_50), api_dbits(b.input_time_50));
    ASSERT_GT(a.model_far_wave.size(), 0u);
    expect_wave_bitwise(a.model_far_wave, b.model_far_wave);
  };

  {
    SCOPED_TRACE("per slot");
    const Outcome<Response> a = engine_->model(replay, fast_options());
    const Outcome<Response> b = engine_->model(reference, fast_options());
    ASSERT_TRUE(a.ok() && b.ok());
    expect_same(a.value(), b.value());
  }
  const std::vector<Request> requests = {replay, reference,
                                         replay_request("mate", 160 * ps)};
  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batched" : "batch_scenarios off");
    BatchOptions options = fast_options();
    options.batch_scenarios = batch;
    const std::vector<Outcome<Response>> results = engine_->run_batch(requests, options);
    ASSERT_TRUE(results[0].ok() && results[1].ok());
    expect_same(results[0].value(), results[1].value());
  }
}

}  // namespace
}  // namespace rlceff::api
