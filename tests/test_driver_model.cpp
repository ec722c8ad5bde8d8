// Tests for the Sec. 5 modeling flow (classification, anchoring, plateau
// handling, breakpoint and criteria logic).
#include "core/driver_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "charlib/library.h"
#include "core/breakpoint.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/units.h"

namespace rlceff::core {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;

TEST(Breakpoint, Equation1) {
  EXPECT_DOUBLE_EQ(0.5, breakpoint_fraction(50.0, 50.0));
  EXPECT_NEAR(68.4 / (68.4 + 45.6), breakpoint_fraction(68.4, 45.6), 1e-12);
  EXPECT_THROW(breakpoint_fraction(0.0, 50.0), Error);
}

TEST(Criteria, AllFourConditions) {
  const tech::WireParasitics wire{72.44, 5.14 * nh, 1.10 * pf};  // Z0 ~ 68 ohm
  const double tf = wire.time_of_flight();

  // Nominal inductive case: all pass.
  auto c = evaluate_criteria(tech::line_net(wire, 20 * ff).metrics(), 40.0, 1.5 * tf);
  EXPECT_TRUE(c.load_small);
  EXPECT_TRUE(c.line_low_loss);
  EXPECT_TRUE(c.driver_fast);
  EXPECT_TRUE(c.ramp_beats_flight);
  EXPECT_TRUE(c.significant());

  // Weak driver: Rs > Z0 fails.
  c = evaluate_criteria(tech::line_net(wire, 20 * ff).metrics(), 120.0, 1.5 * tf);
  EXPECT_FALSE(c.driver_fast);
  EXPECT_FALSE(c.significant());

  // Slow output ramp: Tr1 > 2 tf fails.
  c = evaluate_criteria(tech::line_net(wire, 20 * ff).metrics(), 40.0, 3.0 * tf);
  EXPECT_FALSE(c.ramp_beats_flight);
  EXPECT_FALSE(c.significant());

  // Heavy receiver: load test fails.
  c = evaluate_criteria(tech::line_net(wire, 0.5 * pf).metrics(), 40.0, 1.5 * tf);
  EXPECT_FALSE(c.load_small);

  // Lossy line: R*l > 2*Z0 fails.
  const tech::WireParasitics lossy{300.0, 5.14 * nh, 1.10 * pf};
  c = evaluate_criteria(tech::line_net(lossy, 20 * ff).metrics(), 40.0, 1.5 * tf);
  EXPECT_FALSE(c.line_low_loss);
}

// The flow tests need a characterized driver; characterize small grids once.
class DriverModelFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    technology_ = new tech::Technology(tech::Technology::cmos180());
    charlib::CharacterizationGrid grid;
    grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf, 5 * pf};
    library_ = new charlib::CellLibrary();
    library_->ensure_driver(*technology_, 100.0, grid);
    library_->ensure_driver(*technology_, 25.0, grid);
  }
  static void TearDownTestSuite() {
    delete library_;
    delete technology_;
    library_ = nullptr;
    technology_ = nullptr;
  }

  static const charlib::CharacterizedDriver& strong() { return *library_->find(100.0); }
  static const charlib::CharacterizedDriver& weak() { return *library_->find(25.0); }
  static const tech::WireParasitics inductive_wire() {
    return *tech::find_paper_wire_case(5.0, 1.6);
  }
  static net::Net inductive_line() { return tech::line_net(inductive_wire(), 20 * ff); }

  static tech::Technology* technology_;
  static charlib::CellLibrary* library_;
};

tech::Technology* DriverModelFixture::technology_ = nullptr;
charlib::CellLibrary* DriverModelFixture::library_ = nullptr;

TEST_F(DriverModelFixture, StrongDriverClassifiedTwoRamp) {
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line());
  EXPECT_EQ(ModelKind::two_ramp, m.kind);
  EXPECT_TRUE(m.criteria.significant());
  EXPECT_GT(m.f, 0.5);
  EXPECT_LT(m.f, 1.0);
  EXPECT_TRUE(m.ceff1.converged);
  EXPECT_TRUE(m.ceff2.converged);
}

TEST_F(DriverModelFixture, WeakDriverClassifiedOneRamp) {
  const auto m = model_driver_output(
      weak(), 100 * ps, tech::line_net(*tech::find_paper_wire_case(4.0, 1.6), 20 * ff));
  EXPECT_EQ(ModelKind::one_ramp, m.kind);
  EXPECT_FALSE(m.criteria.significant());
  EXPECT_DOUBLE_EQ(1.0, m.f);
}

TEST_F(DriverModelFixture, WaveformIsMonotoneAndReachesVdd) {
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line());
  const auto& pts = m.waveform.points();
  ASSERT_GE(pts.size(), 3u);
  for (std::size_t k = 1; k < pts.size(); ++k) {
    EXPECT_GT(pts[k].first, pts[k - 1].first);
    EXPECT_GE(pts[k].second, pts[k - 1].second);
  }
  EXPECT_DOUBLE_EQ(0.0, pts.front().second);
  EXPECT_NEAR(technology_->vdd, pts.back().second, 1e-12);
}

TEST_F(DriverModelFixture, T50MatchesTableDelayAtCeff1) {
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line());
  const double table_delay = strong().delay(100 * ps, m.ceff1.ceff);
  expect_rel_near(table_delay, m.t50, 1e-9);
  // And the waveform's own 50 % crossing is exactly there.
  const auto w = m.waveform.to_waveform(m.waveform.end_time() + 1 * ns);
  const auto t50 = w.first_crossing(0.5 * technology_->vdd, true);
  ASSERT_TRUE(t50.has_value());
  expect_rel_near(m.t50, *t50, 1e-9);
}

TEST_F(DriverModelFixture, BreakpointConsistentWithEq1) {
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line());
  expect_rel_near(breakpoint_fraction(m.z0, m.rs), m.f, 1e-12);
  expect_rel_near(inductive_wire().z0(), m.z0, 1e-12);
}

TEST_F(DriverModelFixture, Equation8StretchesSecondRamp) {
  DriverModelOptions opt;
  opt.plateau = PlateauHandling::modified_second_ramp;
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line(), opt);
  // Eq 8: tr2_new = tr2 + (2 tf - tr1) / (1 - f).
  const double expect =
      m.ceff2.ramp_time + std::max(0.0, 2.0 * m.tf - m.ceff1.ramp_time) / (1.0 - m.f);
  expect_rel_near(expect, m.tr2_new, 1e-9);
  EXPECT_GT(m.tr2_new, m.ceff2.ramp_time);
}

TEST_F(DriverModelFixture, PlateauHandlingVariantsOrderEndTimes) {
  DriverModelOptions eq8;
  eq8.plateau = PlateauHandling::modified_second_ramp;
  DriverModelOptions flat;
  flat.plateau = PlateauHandling::flat_step;
  DriverModelOptions none;
  none.plateau = PlateauHandling::none;

  const auto m_eq8 = model_driver_output(strong(), 100 * ps, inductive_line(), eq8);
  const auto m_flat = model_driver_output(strong(), 100 * ps, inductive_line(), flat);
  const auto m_none = model_driver_output(strong(), 100 * ps, inductive_line(), none);

  ASSERT_EQ(ModelKind::two_ramp, m_eq8.kind);
  // Ignoring the plateau finishes earliest; both corrections delay the end.
  const double end_eq8 = m_eq8.waveform.end_time() - m_eq8.waveform.start_time();
  const double end_flat = m_flat.waveform.end_time() - m_flat.waveform.start_time();
  const double end_none = m_none.waveform.end_time() - m_none.waveform.start_time();
  EXPECT_GT(end_eq8, end_none);
  EXPECT_GT(end_flat, end_none);
  // The flat-step variant has four breakpoints, the others three.
  EXPECT_EQ(4u, m_flat.waveform.points().size());
  EXPECT_EQ(3u, m_eq8.waveform.points().size());
}

TEST_F(DriverModelFixture, ForcedSelectionsOverrideCriteria) {
  DriverModelOptions force1;
  force1.selection = ModelSelection::force_one_ramp;
  const auto m1 = model_driver_output(strong(), 100 * ps, inductive_line(), force1);
  EXPECT_EQ(ModelKind::one_ramp, m1.kind);

  DriverModelOptions force2;
  force2.selection = ModelSelection::force_two_ramp;
  const auto m2 = model_driver_output(weak(), 100 * ps, inductive_line(), force2);
  EXPECT_NE(ModelKind::one_ramp, m2.kind);
}

TEST_F(DriverModelFixture, RsAblationTracksLoadChoice) {
  DriverModelOptions at_total;
  at_total.rs_at_total_cap = true;
  DriverModelOptions at_ceff;
  at_ceff.rs_at_total_cap = false;
  const auto m_total =
      model_driver_output(strong(), 100 * ps, inductive_line(), at_total);
  const auto m_ceff =
      model_driver_output(strong(), 100 * ps, inductive_line(), at_ceff);
  // The paper's claim (Sec. 5): the breakpoint does not move enough to
  // change the model class (our Thevenin extraction is somewhat more load
  // sensitive than theirs, hence the generous band; the ablation bench
  // quantifies the delay/slew impact).
  EXPECT_NEAR(m_total.f, m_ceff.f, 0.15);
  EXPECT_EQ(m_total.kind, m_ceff.kind);
}

TEST_F(DriverModelFixture, ThreeRampExtensionStaysMonotone) {
  DriverModelOptions opt;
  opt.three_ramp_extension = true;
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line(), opt);
  // With f ~ 0.66 the second step f2 clamps near the rail; either way the
  // waveform stays monotone and ends at Vdd.
  const auto& pts = m.waveform.points();
  for (std::size_t k = 1; k < pts.size(); ++k) {
    EXPECT_GT(pts[k].first, pts[k - 1].first);
    EXPECT_GE(pts[k].second, pts[k - 1].second - 1e-15);
  }
  EXPECT_NEAR(technology_->vdd, pts.back().second, 1e-12);
  if (m.kind == ModelKind::three_ramp) {
    EXPECT_GT(m.f2, m.f);
    EXPECT_LE(m.f2, 0.98);
    EXPECT_TRUE(m.ceff3.converged);
  }
}

TEST_F(DriverModelFixture, CeffOrderingMatchesTheory) {
  const auto m = model_driver_output(strong(), 100 * ps, inductive_line());
  const double c_total = m.admittance.total_capacitance();
  // Initial step sees a fraction of the line; the reflection window sees
  // more than the total.
  EXPECT_LT(m.ceff1.ceff, 0.6 * c_total);
  EXPECT_GT(m.ceff2.ceff, c_total);
}

TEST_F(DriverModelFixture, InputValidation) {
  EXPECT_THROW(model_driver_output(strong(), 0.0, inductive_line()), Error);
  EXPECT_THROW(
      model_driver_output(strong(), 100 * ps, tech::line_net(inductive_wire(), -1e-15)),
      Error);
}

}  // namespace
}  // namespace rlceff::core
