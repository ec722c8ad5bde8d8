// Tests for the multi-fidelity tier subsystem: the closed-form Tier A
// estimate (its load model, fast admittance walk, secant Ceff solve), the
// router's admission predicates and policy table, the calibrated envelope
// semantics, and the engine's tier stamping/escalation accounting.
//
// The accuracy contract (routed answers sit inside the calibrated envelope
// of the transient reference) lives in the property harness
// (PropertySuite.TierEnvelope); this file pins the mechanics.
#include "tier/analytical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "api/engine.h"
#include "charlib/library.h"
#include "core/ceff.h"
#include "core/coupled_experiment.h"
#include "core/driver_model.h"
#include "core/experiment.h"
#include "lint/lint.h"
#include "moments/admittance.h"
#include "net/coupled.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "testkit/generate.h"
#include "testkit/oracles.h"
#include "testkit/rng.h"
#include "tier/envelope.h"
#include "tier/router.h"
#include "util/budget.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::tier {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;

// ---------------------------------------------------------------------------
// Tier A's load model

// On an exact lumped pi (C1 at the driving point, then R to C2) the
// one-ramp Ceff over a ramp of length T has the closed form
// C1 + C2 * (1 - (1 - e^-x) / x), x = T / (R * C2): C1 charges with the ramp,
// C2 lags it by R * C2.  Tier A's load model is exact on this load (its
// moments are a geometric series, which the Eq 3 fit captures with one
// pole), so core::ceff_single on it reproduces the formula.
TEST(TierAnalytical, LoadModelReproducesLumpedPiShielding) {
  const double c1 = 30 * ff;
  const double c2 = 400 * ff;
  for (double r : {100.0, 1e3, 1e4}) {
    const net::Net pi = net::Net::multi_section(
        {{0.0, 0.0, c1, net::SectionKind::lumped}, {r, 0.0, c2, net::SectionKind::lumped}},
        0.0);
    const core::ChargeModel load = analytical_load(pi);
    for (double t : {20 * ps, 100 * ps, 500 * ps}) {
      const double x = t / (r * c2);
      const double expected = c1 + c2 * (1.0 - (1.0 - std::exp(-x)) / x);
      expect_rel_near(expected, core::ceff_single(load, t), 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// fast_net_admittance vs the Series cascade

TEST(TierAnalytical, FastAdmittanceTracksSeriesCascade) {
  // Paper Table 1 line (distributed RLC): the flattened 4-segment ladder walk
  // must reproduce the exact cascade's moments to discretization accuracy.
  const net::Net net =
      tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
  const util::Series exact = moments::net_admittance(net);
  const util::Series fast = moments::fast_net_admittance(net);
  ASSERT_GE(fast.size(), 6u);
  EXPECT_NEAR(fast[0], 0.0, 1e-18);          // no DC path
  expect_rel_near(exact[1], fast[1], 1e-9);  // m1 = Ctotal is exact
  expect_rel_near(exact[2], fast[2], 0.02);
  expect_rel_near(exact[3], fast[3], 0.05);
}

TEST(TierAnalytical, FastAdmittanceExactForLumpedNets) {
  // Lumped sections are not discretized: the walk is the cascade.
  net::Section s;
  s.kind = net::SectionKind::lumped;
  s.resistance = 40.0;
  s.capacitance = 20 * ff;
  const net::Net net = net::Net::multi_section({s, s}, 15 * ff);
  const util::Series exact = moments::net_admittance(net);
  const util::Series fast = moments::fast_net_admittance(net);
  for (std::size_t k = 1; k < 6; ++k) {
    expect_rel_near(exact[k], fast[k], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// tier / policy spellings

TEST(TierNames, ParsePolicyRoundTrip) {
  for (TierPolicy p : {TierPolicy::reference, TierPolicy::balanced,
                       TierPolicy::fastest, TierPolicy::force_analytical,
                       TierPolicy::force_ceff, TierPolicy::force_reference}) {
    TierPolicy parsed;
    ASSERT_TRUE(parse_tier_policy(to_string(p), parsed)) << to_string(p);
    EXPECT_EQ(parsed, p);
  }
  TierPolicy parsed;
  EXPECT_TRUE(parse_tier_policy("a", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_analytical);
  EXPECT_TRUE(parse_tier_policy("b", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_ceff);
  EXPECT_TRUE(parse_tier_policy("c", parsed));
  EXPECT_EQ(parsed, TierPolicy::force_reference);
  EXPECT_FALSE(parse_tier_policy("warp-speed", parsed));
  EXPECT_FALSE(parse_tier_policy("", parsed));
}

TEST(TierNames, TierLetters) {
  EXPECT_EQ(tier_letter(Tier::analytical), 'a');
  EXPECT_EQ(tier_letter(Tier::ceff), 'b');
  EXPECT_EQ(tier_letter(Tier::reference), 'c');
}

// ---------------------------------------------------------------------------
// router policy table

TEST(TierRouter, RouteTable) {
  const Admission yes{};
  const Admission no{false, "deep_shielding"};
  EXPECT_EQ(route(TierPolicy::reference, yes, false), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::reference, yes, true), Tier::reference);
  EXPECT_EQ(route(TierPolicy::balanced, yes, false), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::balanced, no, false), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::fastest, yes, false), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::fastest, no, false), Tier::ceff);
  // Forced policies ignore the admission verdict.
  EXPECT_EQ(route(TierPolicy::force_analytical, no, false), Tier::analytical);
  EXPECT_EQ(route(TierPolicy::force_ceff, yes, false), Tier::ceff);
  EXPECT_EQ(route(TierPolicy::force_reference, yes, false), Tier::reference);
}

TEST(TierRouter, AdmissionRefusalReasons) {
  AnalyticalEstimate e;
  e.model.kind = core::ModelKind::one_ramp;
  e.model.ceff1.converged = true;
  e.shielding = 0.5;
  EXPECT_TRUE(admit_analytical(e).ok);

  AnalyticalEstimate stalled = e;
  stalled.model.ceff1.converged = false;
  EXPECT_STREQ(admit_analytical(stalled).reason, "fixed_point_stalled");

  // A stalled *second* ramp only matters on two-ramp estimates.
  AnalyticalEstimate two = e;
  two.model.kind = core::ModelKind::two_ramp;
  two.model.ceff2.converged = false;
  EXPECT_STREQ(admit_analytical(two).reason, "fixed_point_stalled");
  two.model.ceff2.converged = true;
  EXPECT_TRUE(admit_analytical(two).ok);

  AnalyticalEstimate deep = e;
  deep.shielding = 0.01;
  EXPECT_STREQ(admit_analytical(deep).reason, "deep_shielding");
}

TEST(TierRouter, GroupAdmissionScreensCouplingNotMutualInductance) {
  // Two parallel distributed RLC lines.
  auto line = [] {
    return net::Net::uniform_line(100.0, 5 * nh, 200 * ff, 20 * ff);
  };
  net::CoupledGroup light;
  light.add_net(line(), "victim");
  light.add_net(line(), "agg");
  light.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  light.couple_inductance({0, 0}, {1, 0}, 0.5);
  // Cc/(Cc+Cg) = 20/240 << 0.4: admitted, mutual inductance notwithstanding.
  EXPECT_TRUE(admit_group_analytical(light, 0).ok);

  net::CoupledGroup heavy;
  heavy.add_net(line(), "victim");
  heavy.add_net(line(), "agg");
  heavy.couple_capacitance({0, 0}, {1, 0}, 400 * ff);
  EXPECT_STREQ(admit_group_analytical(heavy, 0).reason, "coupling_heavy");
}

// ---------------------------------------------------------------------------
// the static screen (lint's tier prediction) against the served one

// Net `index` of the randomized-fleet generator stream.
api::Request fleet_request(std::size_t index) {
  testkit::Rng rng(testkit::mix_seed(0x20030603ull, 0xF1EE7, index));
  return testkit::random_request(rng);
}

// Both Tier A screens on one single net: the served one as api::Engine runs
// it (the estimate's predicates; "estimate_failed" when the closed form
// throws), and the static one lint predicts with (the input slew for the
// ramp, the estimated Thevenin resistance for Rs).  Drivers come from the
// standard characterization grid, as the Engine's default.
class TierStaticScreen : public ::testing::Test {
protected:
  static void SetUpTestSuite() { library_ = new charlib::CellLibrary; }
  static void TearDownTestSuite() {
    delete library_;
    library_ = nullptr;
  }
  static const tech::Technology& technology() {
    static const tech::Technology cmos180 = tech::Technology::cmos180();
    return cmos180;
  }
  static Admission served(double cell_size, double input_slew, const net::Net& net) {
    const charlib::CharacterizedDriver& driver =
        library_->ensure_driver(technology(), cell_size);
    try {
      return admit_analytical(analytical_estimate(driver, input_slew, net));
    } catch (const Error&) {
      return {false, "estimate_failed"};
    }
  }
  static Admission predicted(double cell_size, double input_slew, const net::Net& net) {
    return admit_analytical_static(
        net, lint::estimate_driver_resistance(technology(), cell_size), input_slew);
  }
  static charlib::CellLibrary* library_;
};

charlib::CellLibrary* TierStaticScreen::library_ = nullptr;

TEST_F(TierStaticScreen, DeepShieldingRefusedByBothScreens) {
  // 2 fF at the driving point, then 20 kOhm to 1 pF: a strong driver's ramp
  // sees almost nothing behind the resistor (shielding 0.002-0.005).
  const net::Net shielded = net::Net::multi_section(
      {{0.0, 0.0, 2 * ff, net::SectionKind::lumped},
       {20e3, 0.0, 1 * pf, net::SectionKind::lumped}},
      0.0);
  for (double slew : {20 * ps, 50 * ps, 100 * ps}) {
    EXPECT_STREQ(predicted(200.0, slew, shielded).reason, "deep_shielding") << slew;
    EXPECT_STREQ(served(200.0, slew, shielded).reason, "deep_shielding") << slew;
  }
}

TEST_F(TierStaticScreen, Table1InductiveLineRefusedForInductance) {
  // Table 1's 5 mm / 1.6 um line behind a fast, strong driver: Eq 9 holds at
  // the input-slew proxy as it does at the converged ramp.
  const net::Net line = tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
  EXPECT_STREQ(predicted(100.0, 100 * ps, line).reason, "inductance_significant");
  EXPECT_STREQ(served(100.0, 100 * ps, line).reason, "inductance_significant");
}

TEST_F(TierStaticScreen, PureRcNetAdmitted) {
  const net::Net rc = net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  EXPECT_TRUE(predicted(100.0, 100 * ps, rc).ok);
  EXPECT_TRUE(served(100.0, 100 * ps, rc).ok);
}

TEST_F(TierStaticScreen, UnusableFitRefusedByBothScreens) {
  // Single nets of the randomized-fleet stream whose fast-walk Eq 3 fit has
  // an unstable pole: Tier A's load model throws, so both screens refuse.
  for (std::size_t index : {98u, 173u, 247u}) {
    const api::Request r = fleet_request(index);
    ASSERT_FALSE(r.coupled()) << index;
    EXPECT_THROW(analytical_load(r.net), Error) << index;
    EXPECT_STREQ(predicted(r.cell_size, r.input_slew, r.net).reason, "estimate_failed")
        << index;
    EXPECT_STREQ(served(r.cell_size, r.input_slew, r.net).reason, "estimate_failed")
        << index;
  }
}

TEST_F(TierStaticScreen, FleetStreamRefusalsAgree) {
  // The single nets among the first 4096 of the randomized-fleet stream.
  // Every net the served screen refuses for its closed form is refused
  // statically too: for the same reason, or for Eq 9 first (net 588).  And
  // the static screen refuses no net the served screen admits.  (The reverse
  // does not hold: the served screen reads Eq 9 at the converged ramp, not
  // at the input slew.)
  std::size_t singles = 0;
  std::size_t fit_refusals = 0;
  for (std::size_t k = 0; k < 4096; ++k) {
    const api::Request r = fleet_request(k);
    if (r.coupled()) continue;
    ++singles;
    const Admission served_verdict = served(r.cell_size, r.input_slew, r.net);
    const Admission static_verdict = predicted(r.cell_size, r.input_slew, r.net);
    if (!static_verdict.ok) {
      EXPECT_FALSE(served_verdict.ok)
          << "net " << k << " refused statically: " << static_verdict.reason;
    }
    if (served_verdict.ok || std::string(served_verdict.reason) != "estimate_failed") {
      continue;
    }
    ++fit_refusals;
    const std::string reason = static_verdict.reason;
    EXPECT_TRUE(reason == "estimate_failed" || reason == "inductance_significant")
        << "net " << k << " static verdict '" << reason << "'";
  }
  EXPECT_EQ(singles, 3049u);
  EXPECT_EQ(fit_refusals, 45u);
}

// ---------------------------------------------------------------------------
// envelope semantics

TEST(TierEnvelope, CheckSemantics) {
  const Envelope env{0.10, 5 * ps, 0.20, 10 * ps, 0.1};
  // Inside: 10 % + 5 ps of 100 ps allows up to 115 ps.
  EnvelopeCheck ok = check_envelope(env, 114 * ps, 100 * ps, 100 * ps, 100 * ps,
                                    -1.0, -1.0);
  EXPECT_TRUE(ok.delay_ok);
  EXPECT_TRUE(ok.slew_ok);
  EXPECT_TRUE(ok.noise_ok);  // no noise reference -> vacuously fine
  EXPECT_TRUE(ok.ok());

  EnvelopeCheck wide = check_envelope(env, 120 * ps, 100 * ps, 100 * ps,
                                      100 * ps, -1.0, -1.0);
  EXPECT_FALSE(wide.delay_ok);
  EXPECT_FALSE(wide.ok());

  // The noise figure is a bound: overstating is free, understating beyond
  // noise_abs is a violation.
  EnvelopeCheck over = check_envelope(env, 100 * ps, 100 * ps, 100 * ps,
                                      100 * ps, 0.9, 0.3);
  EXPECT_TRUE(over.noise_ok);
  EnvelopeCheck under = check_envelope(env, 100 * ps, 100 * ps, 100 * ps,
                                       100 * ps, 0.1, 0.3);
  EXPECT_FALSE(under.noise_ok);
}

TEST(TierEnvelope, ReferenceTierIsExact) {
  const Envelope ref = envelope(Tier::reference, false);
  EXPECT_EQ(ref.delay_rel, 0.0);
  EXPECT_EQ(ref.delay_abs, 0.0);
  // Cheaper tiers carry non-trivial widths.
  EXPECT_GT(envelope(Tier::analytical, false).delay_rel, 0.0);
  EXPECT_GT(envelope(Tier::ceff, true).delay_rel, 0.0);
}

// ---------------------------------------------------------------------------
// engine integration: stamping, escalation accounting, validation

class TierEngineFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    engine_ = new api::Engine(tech::Technology::cmos180());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static api::BatchOptions fast_options() {
    api::BatchOptions opt;
    opt.deck.segments = 12;
    opt.deck.dt = 1 * ps;
    opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf,
                      5 * pf};
    return opt;
  }
  // A short lumped route, RC-dominated: the Tier A common case.  The token
  // inductance keeps the legacy Tier B flow happy (net::Net::metrics requires
  // an L+C path) without making Eq 9 fire.
  static api::Request rc_request(std::string label) {
    api::Request r;
    r.label = std::move(label);
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    net::Section s;
    s.kind = net::SectionKind::lumped;
    s.resistance = 40.0;
    s.inductance = 10 * ph;
    s.capacitance = 20 * ff;
    r.net = net::Net::multi_section({s, s}, 15 * ff);
    return r;
  }
  // Table 1's 100X inductive line: Eq 9 fires, Tier A must refuse.
  static api::Request inductive_request(std::string label) {
    api::Request r;
    r.label = std::move(label);
    r.cell_size = 100.0;
    r.input_slew = 100 * ps;
    r.net = tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
    return r;
  }
  static api::Engine* engine_;
};

api::Engine* TierEngineFixture::engine_ = nullptr;

TEST_F(TierEngineFixture, BalancedServesAnalyticalOnEasyNets) {
  api::Request r = rc_request("balanced-rc");
  r.tier = TierPolicy::balanced;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value().tier, Tier::analytical);
  EXPECT_EQ(out.value().fidelity, api::Fidelity::analytical);
  EXPECT_EQ(out.value().tier_escalations, 0u);
  EXPECT_GT(out.value().model_near.delay, 0.0);
}

TEST_F(TierEngineFixture, InductiveNetEscalatesToCeff) {
  for (TierPolicy p : {TierPolicy::balanced, TierPolicy::fastest}) {
    api::Request r = inductive_request(std::string("escalate-") + to_string(p));
    r.tier = p;
    const api::Outcome<api::Response> out = engine_->model(r, fast_options());
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value().tier, Tier::ceff) << to_string(p);
    EXPECT_EQ(out.value().tier_escalations, 1u) << to_string(p);
  }
}

TEST_F(TierEngineFixture, ForcedPoliciesPinTheirTier) {
  api::Request a = inductive_request("force-a");
  a.tier = TierPolicy::force_analytical;  // skips admission on purpose
  api::Request b = rc_request("force-b");
  b.tier = TierPolicy::force_ceff;
  api::Request c = rc_request("force-c");
  c.tier = TierPolicy::force_reference;
  const auto results =
      engine_->run_batch(std::vector<api::Request>{a, b, c}, fast_options());
  ASSERT_TRUE(results[0].ok()) << results[0].error().message;
  ASSERT_TRUE(results[1].ok()) << results[1].error().message;
  ASSERT_TRUE(results[2].ok()) << results[2].error().message;
  EXPECT_EQ(results[0].value().tier, Tier::analytical);
  EXPECT_EQ(results[1].value().tier, Tier::ceff);
  EXPECT_EQ(results[2].value().tier, Tier::reference);
  EXPECT_TRUE(results[2].value().has_reference);
  for (const auto& out : results) {
    EXPECT_EQ(out.value().tier_escalations, 0u);
  }
}

TEST_F(TierEngineFixture, FastestTierBAnswerMatchesForceCeff) {
  // Tier A refuses the inductive net (one escalation) and Tier B answers.
  // The answer is force_ceff's, bitwise, exact and with no attempt trail.
  api::Request r = inductive_request("fastest-b");
  r.tier = TierPolicy::fastest;
  r.degrade.enabled = true;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  const api::Response& served = out.value();
  EXPECT_EQ(served.tier, Tier::ceff);
  EXPECT_EQ(served.fidelity, api::Fidelity::ceff_model);
  EXPECT_FALSE(served.degraded);
  EXPECT_EQ(served.tier_escalations, 1u);
  EXPECT_TRUE(served.attempts.empty());

  api::Request tier_b = inductive_request("force-b");
  tier_b.tier = TierPolicy::force_ceff;
  const api::Outcome<api::Response> direct = engine_->model(tier_b, fast_options());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served.model_near.delay, direct.value().model_near.delay);
  EXPECT_EQ(served.model_near.slew, direct.value().model_near.slew);
}

TEST_F(TierEngineFixture, FloorAnswerKeepsEscalations) {
  // A Tier B capped at zero passes does not converge; the slot lands on the
  // moments-only floor, which still reports the escalation the cascade
  // took.
  api::Request r = inductive_request("fastest-floor");
  r.tier = TierPolicy::fastest;
  r.model.iteration.max_iter = 0;
  r.degrade.enabled = true;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value().fidelity, api::Fidelity::moments_only);
  EXPECT_TRUE(out.value().degraded);
  EXPECT_EQ(out.value().tier_escalations, 1u);
  ASSERT_EQ(out.value().attempts.size(), 1u);
  EXPECT_EQ(out.value().attempts.front().code, api::ErrorCode::convergence_failure);
}

TEST_F(TierEngineFixture, AttemptNamesTheRungThatThrew) {
  // A forced Tier C starved of transient steps degrades to the floor; its
  // attempt trail names the reference rung, not the Ceff model.
  api::Request c = rc_request("force-c-starved");
  c.tier = TierPolicy::force_reference;
  c.budget.max_transient_steps = 16;
  c.degrade.enabled = true;
  const api::Outcome<api::Response> starved = engine_->model(c, fast_options());
  ASSERT_TRUE(starved.ok()) << starved.error().message;
  EXPECT_EQ(starved.value().fidelity, api::Fidelity::moments_only);
  ASSERT_EQ(starved.value().attempts.size(), 1u);
  EXPECT_EQ(starved.value().attempts.front().fidelity, api::Fidelity::reference);
  EXPECT_EQ(starved.value().attempts.front().code, api::ErrorCode::resource_exhausted);

  // A capped Tier B under fastest throws from the Ceff rung.
  api::Request b = inductive_request("fastest-b-throws");
  b.tier = TierPolicy::fastest;
  b.model.iteration.max_iter = 0;
  b.degrade.enabled = true;
  const api::Outcome<api::Response> floored = engine_->model(b, fast_options());
  ASSERT_TRUE(floored.ok()) << floored.error().message;
  ASSERT_EQ(floored.value().attempts.size(), 1u);
  EXPECT_EQ(floored.value().attempts.front().fidelity, api::Fidelity::ceff_model);
  EXPECT_EQ(floored.value().attempts.front().code, api::ErrorCode::convergence_failure);
}

TEST_F(TierEngineFixture, AnalyticalCeffAgreesWithCeffTier) {
  // Tier A's secant fixed point and Tier B's bracketed secant solve the same
  // equation over the same charge model; on a lumped RC net (no ladder
  // discretization) the converged Ceff and delay must agree closely.
  api::Request a = rc_request("agree-a");
  a.tier = TierPolicy::force_analytical;
  api::Request b = rc_request("agree-b");
  b.tier = TierPolicy::force_ceff;
  const api::Outcome<api::Response> ra = engine_->model(a, fast_options());
  const api::Outcome<api::Response> rb = engine_->model(b, fast_options());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  expect_rel_near(rb.value().model.ceff1.ceff, ra.value().model.ceff1.ceff, 0.02);
  expect_rel_near(rb.value().model_near.delay, ra.value().model_near.delay, 0.05);
}

TEST_F(TierEngineFixture, ReferenceFlagIsIncompatibleWithTierPolicies) {
  api::Request r = rc_request("tier-plus-reference");
  r.tier = TierPolicy::balanced;
  r.reference = true;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, api::ErrorCode::invalid_request);
}

TEST_F(TierEngineFixture, PinnedCoupledVictimIsNotJudgedByItsAggressor) {
  // A short victim beside Table 1's 5 mm / 1.6 um aggressor, both behind
  // 200X at 30 ps, the victim pinned to Tier A with the deep lint screen
  // armed at warn.  Lint judges a group's members without the victim's
  // driver, so neither a tier prediction nor an Eq 9 verdict computed from
  // the victim's Rs and slew lands on the aggressor.
  const tech::WireModel wires;
  net::CoupledGroup group;
  group.add_net(tech::line_net(wires.extract({0.5 * mm, 0.4 * um}), 10 * ff), "victim");
  group.add_net(tech::line_net(wires.extract({5.0 * mm, 1.6 * um}), 20 * ff), "aggr");
  group.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  api::Request r;
  r.label = "pinned-victim";
  r.cell_size = 200.0;
  r.input_slew = 30 * ps;
  r.group = std::move(group);
  r.victim = 0;
  r.aggressors.push_back({1, 200.0, 30 * ps, core::AggressorSwitching::opposite});
  r.tier = TierPolicy::force_analytical;
  r.lint.screen = true;
  r.lint.report = true;
  r.lint.fail_at = lint::Severity::warn;
  r.lint.checks = lint::Options{};
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value().tier, Tier::analytical);
  bool aggressor_inductive = false;
  for (const lint::Diagnostic& d : out.value().diagnostics) {
    EXPECT_STRNE(lint::family(d.code), "tier") << lint::format(d);
    aggressor_inductive = aggressor_inductive ||
                          (d.code == lint::Code::inductance_significant &&
                           d.path == "net 'aggr'");
  }
  EXPECT_FALSE(aggressor_inductive);  // no Eq 9 verdict from the victim's driver
}

TEST_F(TierEngineFixture, CoupledAnalyticalReportsNoiseBound) {
  auto line = [] {
    return net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  };
  api::Request r;
  r.label = "coupled-a";
  r.cell_size = 100.0;
  r.input_slew = 100 * ps;
  r.group.add_net(line(), "victim");
  r.group.add_net(line(), "agg");
  r.group.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  r.victim = 0;
  r.tier = TierPolicy::force_analytical;
  const api::Outcome<api::Response> out = engine_->model(r, fast_options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_TRUE(out.value().has_noise_bound);
  const double cc = 20 * ff;
  const double cg = r.group.net_at(0).total_capacitance();
  expect_rel_near(engine_->technology().vdd * cc / (cc + cg),
                  out.value().noise_bound, 1e-9);
}

// ---------------------------------------------------------------------------
// the fleet tail: answered at Tier B, and Tier C served once when it fails

// Nets 101, 127, 141 and 195 of the randomized-fleet generator stream, at
// the balanced fleet's deck fidelity (8 segments, 4 ps).  A plain Picard
// iteration crept on their Tier-B fixed points (|g'| 0.85-0.89; for the
// coupled net 101, the quiet baseline's) until its cap, which sent them to
// the transient reference.  The bracketed secant converges on them, so
// balanced answers at Tier B.  A zero iteration cap still fails Tier B on
// the same nets, and then the cascade escalates to Tier C, where the Ceff
// model is only a diagnostic.
class TierFleetTail : public ::testing::TestWithParam<std::size_t> {
protected:
  static void SetUpTestSuite() {
    engine_ = new api::Engine(tech::Technology::cmos180());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static api::BatchOptions options() {
    api::BatchOptions opt;
    opt.deck.segments = 8;
    opt.deck.dt = 4 * ps;
    return opt;
  }
  // The accepted transient steps of the one Tier-C experiment the Engine
  // runs for `r` (the request's far-end and noise switches, no kept
  // waveforms, so with the measured-edge stop), metered by a tracker.
  static std::int64_t tier_c_steps(const api::Request& r) {
    util::ExecBudget spec;
    spec.max_transient_steps = std::numeric_limits<std::int64_t>::max();
    util::ExecTracker tracker(spec);
    tech::DeckOptions deck = options().deck;
    deck.sim.budget = &tracker;
    deck.sim.solver = r.solver;
    if (r.coupled()) {
      core::CoupledExperimentCase scenario;
      scenario.group = r.group;
      scenario.victim = r.victim;
      scenario.driver_size = r.cell_size;
      scenario.input_slew = r.input_slew;
      core::AggressorDrive quiet;
      quiet.switching = core::AggressorSwitching::quiet;
      scenario.aggressors.assign(r.group.size(), quiet);
      for (const api::Aggressor& a : r.aggressors) {
        scenario.aggressors[a.net] = {a.cell_size, a.input_slew, a.switching};
      }
      core::CoupledExperimentOptions opt;
      opt.deck = deck;
      opt.model = r.model;
      opt.include_far_end = r.far_end;
      opt.include_noise = r.noise;
      core::run_coupled_experiment(engine_->technology(), engine_->library(), scenario,
                                   opt);
    } else {
      core::ExperimentCase scenario;
      scenario.driver_size = r.cell_size;
      scenario.input_slew = r.input_slew;
      scenario.net = r.net;
      core::ExperimentOptions opt;
      opt.deck = deck;
      opt.model = r.model;
      opt.include_far_end = r.far_end;
      opt.include_one_ramp = false;
      core::run_experiment(engine_->technology(), engine_->library(), scenario, opt);
    }
    return tracker.steps_used();
  }
  static api::Engine* engine_;
};

api::Engine* TierFleetTail::engine_ = nullptr;

TEST_P(TierFleetTail, BalancedAnswersAtTierBInsideItsEnvelope) {
  // One escalation (Tier A refuses the net) and a converged Tier B: with
  // the convergence gate on, every Ceff solve of the slot (for net 101 the
  // quiet baseline's too) converged, or it would have gone on to Tier C.
  api::Request r = fleet_request(GetParam());
  r.tier = TierPolicy::balanced;
  r.degrade.enabled = true;
  const api::Outcome<api::Response> out = engine_->model(r, options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  const api::Response& b = out.value();
  EXPECT_EQ(b.tier, Tier::ceff);
  EXPECT_EQ(b.fidelity, api::Fidelity::ceff_model);
  EXPECT_FALSE(b.degraded);
  EXPECT_EQ(b.tier_escalations, 1u);
  EXPECT_TRUE(b.attempts.empty());
  EXPECT_TRUE(b.model.ceff1.converged);
  if (b.model.kind != core::ModelKind::one_ramp) {
    EXPECT_TRUE(b.model.ceff2.converged);
  }

  // The Tier-B answer sits inside Tier B's envelope of the Tier-C edge.
  api::Request c = fleet_request(GetParam());
  c.tier = TierPolicy::force_reference;
  const api::Outcome<api::Response> ref = engine_->model(c, options());
  ASSERT_TRUE(ref.ok()) << ref.error().message;
  ASSERT_TRUE(ref.value().has_reference);
  const EnvelopeCheck check = check_envelope(
      envelope(Tier::ceff, r.coupled()), b.model_near.delay, b.model_near.slew,
      ref.value().ref_near.delay, ref.value().ref_near.slew);
  EXPECT_TRUE(check.delay_ok) << b.model_near.delay << " vs " << ref.value().ref_near.delay;
  EXPECT_TRUE(check.slew_ok) << b.model_near.slew << " vs " << ref.value().ref_near.slew;
}

TEST_P(TierFleetTail, CappedTierBAnswersFromOneTierCExperiment) {
  api::Request r = fleet_request(GetParam());
  r.tier = TierPolicy::balanced;
  r.model.iteration.max_iter = 0;
  r.degrade.enabled = true;
  auto expect_tier_c = [](const api::Outcome<api::Response>& out) {
    ASSERT_TRUE(out.ok()) << out.error().message;
    const api::Response& s = out.value();
    EXPECT_EQ(s.tier, Tier::reference);
    EXPECT_EQ(s.fidelity, api::Fidelity::reference);
    EXPECT_TRUE(s.has_reference);
    EXPECT_FALSE(s.degraded);
    EXPECT_EQ(s.tier_escalations, 2u);
    EXPECT_TRUE(s.attempts.empty());
    // The answer is the simulated edge, not the diagnostic model's.
    EXPECT_EQ(&s.answer_near(), &s.ref_near);
    EXPECT_GT(s.answer_near().slew, 0.0);
  };
  expect_tier_c(engine_->model(r, options()));

  // A step budget of exactly one Tier-C experiment suffices; one step less
  // lands on the moments-only floor, which keeps the escalation path.
  const std::int64_t steps = tier_c_steps(r);
  ASSERT_GT(steps, 0);
  r.budget.max_transient_steps = steps;
  expect_tier_c(engine_->model(r, options()));
  r.budget.max_transient_steps = steps - 1;
  const api::Outcome<api::Response> floor = engine_->model(r, options());
  ASSERT_TRUE(floor.ok()) << floor.error().message;
  EXPECT_EQ(floor.value().fidelity, api::Fidelity::moments_only);
  EXPECT_TRUE(floor.value().degraded);
  EXPECT_EQ(floor.value().tier_escalations, 2u);
  ASSERT_EQ(floor.value().attempts.size(), 1u);
  EXPECT_EQ(floor.value().attempts.front().code, api::ErrorCode::resource_exhausted);
  EXPECT_EQ(floor.value().attempts.front().fidelity, api::Fidelity::reference);
}

TEST_P(TierFleetTail, ForceReferenceKeepsTheConvergenceGate) {
  api::Request r = fleet_request(GetParam());
  r.tier = TierPolicy::force_reference;
  r.model.iteration.max_iter = 0;
  const api::Outcome<api::Response> out = engine_->model(r, options());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, api::ErrorCode::convergence_failure);
}

INSTANTIATE_TEST_SUITE_P(FleetNets, TierFleetTail,
                         ::testing::Values(std::size_t{101}, std::size_t{127},
                                           std::size_t{141}, std::size_t{195}));

// The 44 of the first 4096 nets of the same stream on which a plain Picard
// iteration ran out of its 60-pass cap (the 4 above among them).  Forced to
// Tier B with the convergence gate on, each converges, and the
// ceff_convergence oracle holds on it.
class TierFleetStream : public TierFleetTail {};

TEST_P(TierFleetStream, ForceCeffConverges) {
  api::Request r = fleet_request(GetParam());
  r.tier = TierPolicy::force_ceff;
  ASSERT_TRUE(r.require_convergence);
  const api::Outcome<api::Response> out = engine_->model(r, options());
  ASSERT_TRUE(out.ok()) << out.error().message;
  const core::DriverOutputModel& m = out.value().model;
  EXPECT_TRUE(m.ceff1.converged);
  if (m.kind != core::ModelKind::one_ramp) {
    EXPECT_TRUE(m.ceff2.converged);
  }
  if (m.kind == core::ModelKind::three_ramp) {
    EXPECT_TRUE(m.ceff3.converged);
  }
  try {
    testkit::check_engine_outcome(*engine_, r, options());
  } catch (const Error& e) {
    ADD_FAILURE() << e.what();
  }
}

// Nets of the same stream whose Ceff2 map is not monotone: from Ctotal the
// residual first rises, so a secant kept only inside the clamp range, not
// inside the bracket, steps below the lower clamp and never converges
// (net 15's map is the shape FixedPoint.NonMonotoneMapConvergesInsideTheBracket
// models).
INSTANTIATE_TEST_SUITE_P(NonMonotoneMaps, TierFleetStream,
                         ::testing::Values(std::size_t{15}, std::size_t{109},
                                           std::size_t{156}));

INSTANTIATE_TEST_SUITE_P(
    PicardCapFailures, TierFleetStream,
    ::testing::Values(std::size_t{101}, std::size_t{127}, std::size_t{141},
                      std::size_t{195}, std::size_t{277}, std::size_t{520},
                      std::size_t{606}, std::size_t{705}, std::size_t{775},
                      std::size_t{938}, std::size_t{1126}, std::size_t{1266},
                      std::size_t{1475}, std::size_t{1505}, std::size_t{1525},
                      std::size_t{1529}, std::size_t{1667}, std::size_t{1853},
                      std::size_t{1894}, std::size_t{1911}, std::size_t{2112},
                      std::size_t{2347}, std::size_t{2872}, std::size_t{2920},
                      std::size_t{2957}, std::size_t{2989}, std::size_t{3022},
                      std::size_t{3074}, std::size_t{3103}, std::size_t{3221},
                      std::size_t{3239}, std::size_t{3276}, std::size_t{3347},
                      std::size_t{3353}, std::size_t{3372}, std::size_t{3602},
                      std::size_t{3630}, std::size_t{3746}, std::size_t{3794},
                      std::size_t{3853}, std::size_t{3896}, std::size_t{3934},
                      std::size_t{3987}, std::size_t{4035}));

}  // namespace
}  // namespace rlceff::tier
