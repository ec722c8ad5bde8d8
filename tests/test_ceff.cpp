// Tests for the charge-matching effective-capacitance mathematics (Sec. 4).
//
// Strategy: the unified complex-residue implementation is checked three
// independent ways — against closed-form RC charge expressions, against the
// paper's printed Eq 4 / Eq 6 real-pole forms, and against adaptive
// quadrature of the time-domain current for the complex-pole loads of every
// printed wire geometry.
#include "core/ceff.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/charge.h"
#include "moments/admittance.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::core {
namespace {

using namespace rlceff::units;
using moments::RationalAdmittance;
using rlceff::testing::expect_rel_near;

// Two parallel series-RC branches: Y = s C1/(1+s R1 C1) + s C2/(1+s R2 C2).
// Real poles at -1/R1C1, -1/R2C2, with a closed-form ramp charge.
struct TwoBranchRc {
  double r1, c1, r2, c2;

  RationalAdmittance rational() const {
    const double t1 = r1 * c1;
    const double t2 = r2 * c2;
    return RationalAdmittance(c1 + c2, c1 * t2 + c2 * t1, 0.0, t1 + t2, t1 * t2);
  }
  // Charge of v = slope * t into the branches (exact).
  double ramp_charge(double slope, double t) const {
    auto branch = [&](double r, double c) {
      const double tau = r * c;
      return c * (t - tau * (1.0 - std::exp(-t / tau)));
    };
    return slope * (branch(r1, c1) + branch(r2, c2));
  }
  // Charge of a step to v0 at t = 0 over (0, t].
  double step_charge(double v0, double t) const {
    auto branch = [&](double r, double c) {
      return c * (1.0 - std::exp(-t / (r * c)));
    };
    return v0 * (branch(r1, c1) + branch(r2, c2));
  }
};

TEST(ChargeModel, RampChargeMatchesSeriesRcClosedForm) {
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const ChargeModel q(net.rational());
  for (double t : {10 * ps, 50 * ps, 150 * ps, 600 * ps}) {
    expect_rel_near(net.ramp_charge(2e9, t), q.ramp_charge(2e9, t), 1e-9);
  }
}

TEST(ChargeModel, StepChargeMatchesSeriesRcClosedForm) {
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const ChargeModel q(net.rational());
  for (double t : {5 * ps, 40 * ps, 300 * ps}) {
    expect_rel_near(net.step_charge(1.8, t), q.step_charge(1.8, t), 1e-9);
  }
}

TEST(ChargeModel, RampChargeStartsAtZero) {
  const TwoBranchRc net{80.0, 0.5 * pf, 150.0, 0.6 * pf};
  const ChargeModel q(net.rational());
  EXPECT_NEAR(0.0, q.ramp_charge(1e9, 1e-18), 1e-25);
  EXPECT_DOUBLE_EQ(0.0, q.ramp_charge(1e9, 0.0));
}

TEST(ChargeModel, PureCapacitorIsExact) {
  const RationalAdmittance y(1 * pf, 0.0, 0.0, 0.0, 0.0);
  const ChargeModel q(y);
  expect_rel_near(1e-12 * 0.9, q.ramp_charge(1e9, 0.9 * ns), 1e-12);
  expect_rel_near(1.8e-12, q.step_charge(1.8, 1 * ns), 1e-12);
}

TEST(ChargeModel, WindowChargeIsAdditive) {
  const TwoBranchRc net{60.0, 0.3 * pf, 120.0, 0.9 * pf};
  const ChargeModel q(net.rational());
  const double whole = q.window_charge(1e9, 0.5, 0.0, 400 * ps);
  const double split = q.window_charge(1e9, 0.5, 0.0, 150 * ps) +
                       q.window_charge(1e9, 0.5, 150 * ps, 400 * ps);
  expect_rel_near(whole, split, 1e-12);
}

TEST(ChargeModel, WindowChargeIsBitwiseRampPlusStep) {
  // window_charge shares each pole's exponential between the ramp and step
  // sums; the result must be the plain ramp_charge + step_charge difference
  // bit for bit, over every pole shape and window kind.
  using rlceff::testing::uniform;
  for (int trial = 0; trial < 400; ++trial) {
    const double a1 = uniform(0.1, 2.0) * pf;
    const double a2 = uniform(-1.0, 1.0) * a1 * 50 * ps;
    const double a3 = uniform(-1.0, 1.0) * a1 * 50 * ps * 50 * ps;
    double b1 = 0.0;
    double b2 = 0.0;
    switch (trial % 4) {
      case 0: {  // two real poles
        const double t1 = uniform(5.0, 200.0) * ps;
        const double t2 = uniform(5.0, 200.0) * ps;
        b1 = t1 + t2;
        b2 = t1 * t2;
        break;
      }
      case 1: {  // complex pair at -sigma +- j omega
        const double sigma = uniform(1e9, 2e10);
        const double omega = uniform(1e9, 5e10);
        b2 = 1.0 / (sigma * sigma + omega * omega);
        b1 = 2.0 * sigma * b2;
        break;
      }
      case 2:  // one pole
        b1 = uniform(5.0, 200.0) * ps;
        break;
      default:  // pole-free fit
        break;
    }
    const ChargeModel q(RationalAdmittance(a1, a2, a3, b1, b2));
    const double slope = 1.0 / (uniform(10.0, 500.0) * ps);
    const double v0 = (trial / 4) % 2 == 0 ? 0.0 : uniform(-0.5, 1.0);
    const double t_begin = (trial / 8) % 2 == 0 ? 0.0 : uniform(1.0, 300.0) * ps;
    const double t_end = t_begin + uniform(1.0, 500.0) * ps;
    const double q_end = q.ramp_charge(slope, t_end) + q.step_charge(v0, t_end);
    const double q_begin = q.ramp_charge(slope, t_begin) + q.step_charge(v0, t_begin);
    const double expected = q_end - q_begin;
    const double got = q.window_charge(slope, v0, t_begin, t_end);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected), std::bit_cast<std::uint64_t>(got))
        << "trial " << trial << ": " << expected << " vs " << got;
  }
}

TEST(ChargeModel, RejectsUnstableAdmittance) {
  // b1 < 0 puts a pole in the right half plane.
  const RationalAdmittance y(1 * pf, 0.0, 0.0, -1e-10, 1e-21);
  EXPECT_THROW(ChargeModel{y}, Error);
}

TEST(Ceff, UnifiedMatchesPaperEq4OnRealPoles) {
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const RationalAdmittance y = net.rational();
  const ChargeModel q(y);
  for (double f : {0.55, 0.7, 0.9}) {
    for (double tr1 : {20 * ps, 60 * ps, 150 * ps}) {
      expect_rel_near(ceff_first_ramp_eq4(y, f, tr1), ceff_first_ramp(q, f, tr1), 1e-9);
    }
  }
}

TEST(Ceff, UnifiedMatchesPaperEq6OnRealPoles) {
  const TwoBranchRc net{40.0, 0.5 * pf, 180.0, 0.7 * pf};
  const RationalAdmittance y = net.rational();
  const ChargeModel q(y);
  for (double f : {0.55, 0.75}) {
    for (double tr1 : {30 * ps, 80 * ps}) {
      for (double tr2 : {100 * ps, 300 * ps}) {
        expect_rel_near(ceff_second_ramp_eq6(y, f, tr1, tr2),
                        ceff_second_ramp(q, f, tr1, tr2), 1e-9);
      }
    }
  }
}

TEST(Ceff, Eq4RequiresRealPoles) {
  // Underdamped RLC load -> complex poles -> the printed Eq 4 does not apply.
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 2.5);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const RationalAdmittance y(series);
  ASSERT_TRUE(y.complex_poles());
  EXPECT_THROW(ceff_first_ramp_eq4(y, 0.6, 50 * ps), Error);
}

// Quadrature cross-check over every printed wire geometry (these loads have
// complex poles for wide lines and near-critical damping for narrow ones, so
// the sweep covers both Eq 4/5 and Eq 6/7 branches).
class CeffQuadrature : public ::testing::TestWithParam<tech::PaperWireCase> {};

TEST_P(CeffQuadrature, FirstRampMatchesNumericIntegration) {
  const auto& c = GetParam();
  const util::Series series = moments::distributed_line_admittance(
      c.parasitics.resistance, c.parasitics.inductance, c.parasitics.capacitance,
      20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  for (double tr1 : {40 * ps, 120 * ps}) {
    expect_rel_near(ceff_first_ramp_numeric(q, 0.65, tr1),
                    ceff_first_ramp(q, 0.65, tr1), 1e-5);
  }
}

TEST_P(CeffQuadrature, SecondRampMatchesNumericIntegration) {
  const auto& c = GetParam();
  const util::Series series = moments::distributed_line_admittance(
      c.parasitics.resistance, c.parasitics.inductance, c.parasitics.capacitance,
      20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  expect_rel_near(ceff_second_ramp_numeric(q, 0.65, 60 * ps, 250 * ps),
                  ceff_second_ramp(q, 0.65, 60 * ps, 250 * ps), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllSixteenCases, CeffQuadrature,
                         ::testing::ValuesIn(tech::paper_wire_cases().begin(),
                                             tech::paper_wire_cases().end()));

TEST(Ceff, SlowRampApproachesTotalCapacitance) {
  // For transitions much slower than every time constant, the whole load
  // charges and Ceff -> Ctotal.
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const ChargeModel q(net.rational());
  const double slow = ceff_single(q, 1000 * ns);
  expect_rel_near(1.2 * pf, slow, 1e-3);
}

TEST(Ceff, FastRampSeesLessThanTotal) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  const double fast = ceff_first_ramp(q, 0.65, 50 * ps);
  EXPECT_GT(fast, 0.0);
  EXPECT_LT(fast, 0.6 * (w.capacitance + 20 * ff));
}

TEST(Ceff, FirstRampCeffIncreasesWithRampTime) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  double prev = 0.0;
  for (double tr1 = 20 * ps; tr1 <= 640 * ps; tr1 *= 2.0) {
    const double c = ceff_first_ramp(q, 0.65, tr1);
    EXPECT_GT(c, prev) << "tr1=" << tr1;
    prev = c;
  }
}

TEST(Ceff, SecondRampCeffCanExceedTotalCapacitance) {
  // The second window also absorbs the charge the initial step skipped, so
  // Ceff2 > Ctotal is expected for inductively dominated lines.
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  const double c2 = ceff_second_ramp(q, 0.65, 60 * ps, 250 * ps);
  EXPECT_GT(c2, w.capacitance);
}

TEST(Ceff, SingleEqualsFirstRampWithFOne) {
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const ChargeModel q(net.rational());
  EXPECT_DOUBLE_EQ(ceff_first_ramp(q, 1.0, 80 * ps), ceff_single(q, 80 * ps));
}

TEST(Ceff, ArgumentValidation) {
  const TwoBranchRc net{50.0, 0.4 * pf, 200.0, 0.8 * pf};
  const ChargeModel q(net.rational());
  EXPECT_THROW(ceff_first_ramp(q, 0.0, 50 * ps), Error);
  EXPECT_THROW(ceff_first_ramp(q, 1.2, 50 * ps), Error);
  EXPECT_THROW(ceff_first_ramp(q, 0.6, 0.0), Error);
  EXPECT_THROW(ceff_second_ramp(q, 1.0, 50 * ps, 100 * ps), Error);
  EXPECT_THROW(ceff_second_ramp(q, 0.6, 50 * ps, 0.0), Error);
}

TEST(CeffIteration, ConvergesWithSyntheticTable) {
  // A synthetic "cell table": transition grows affinely with load, the way a
  // real driver's does.  The iteration must find a self-consistent pair.
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  const auto transition = [](double c) { return 20 * ps + c * 60.0; };  // ~60 ps/pF

  const CeffIteration it = iterate_ceff1(q, 0.65, transition);
  EXPECT_TRUE(it.converged);
  EXPECT_LT(it.iterations, 40);
  // Self-consistency: Ceff(tr(Ceff)) == Ceff.
  expect_rel_near(it.ceff, ceff_first_ramp(q, 0.65, transition(it.ceff)), 1e-5);
  EXPECT_GT(it.ceff, 0.0);
  EXPECT_LT(it.ceff, w.capacitance + 20 * ff);
}

TEST(CeffIteration, SecondRampSelfConsistent) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  const auto transition = [](double c) { return 20 * ps + c * 60.0; };
  const double tr1 = 55 * ps;
  const CeffIteration it = iterate_ceff2(q, 0.65, tr1, transition);
  EXPECT_TRUE(it.converged);
  expect_rel_near(it.ceff, ceff_second_ramp(q, 0.65, tr1, transition(it.ceff)), 1e-5);
}

TEST(CeffIteration, ThirdRampClampedToCtotal) {
  // The third ramp's window starts where the second ramp ends.  An early
  // window has a self-consistent fixed point below Ctotal; a late one also
  // absorbs the charge the earlier ramps left behind, and its iterate is
  // clamped to Ctotal (the other windows allow 20x Ctotal).
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series series = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  const ChargeModel q{RationalAdmittance(series)};
  const double c_total = q.admittance().total_capacitance();
  const auto transition = [](double c) { return 20 * ps + c * 60.0; };
  const double f2 = 0.8;
  const auto ceff3 = [&](double t_begin, double tr3) {
    return q.window_charge(1.0 / tr3, f2 - t_begin / tr3, t_begin,
                           t_begin + (1.0 - f2) * tr3) /
           (1.0 - f2);
  };

  const CeffIteration early = iterate_ceff3(q, f2, 60 * ps, transition);
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.ceff, c_total);
  expect_rel_near(early.ceff, ceff3(60 * ps, transition(early.ceff)), 1e-5);
  EXPECT_DOUBLE_EQ(transition(early.ceff), early.ramp_time);

  const CeffIteration late = iterate_ceff3(q, f2, 250 * ps, transition);
  EXPECT_TRUE(late.converged);
  EXPECT_GT(ceff3(250 * ps, transition(c_total)), c_total);
  EXPECT_DOUBLE_EQ(c_total, late.ceff);
}

}  // namespace
}  // namespace rlceff::core
