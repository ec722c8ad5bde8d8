// Tests for admittance moments, the Eq-3 rational fit, pi synthesis and AWE.
#include "moments/admittance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "moments/awe.h"
#include "moments/pimodel.h"
#include "moments/rational.h"
#include "net/net.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::moments {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;
using rlceff::testing::lumped_branch;

TEST(Admittance, FirstMomentIsTotalCapacitance) {
  const util::Series y = ladder_admittance(100.0, 5 * nh, 1 * pf, 30 * ff, 50);
  EXPECT_NEAR(0.0, y[0], 1e-20);
  expect_rel_near(1.03e-12, y[1], 1e-9);
}

TEST(Admittance, DistributedFirstMomentIsTotalCapacitance) {
  const util::Series y = distributed_line_admittance(100.0, 5 * nh, 1 * pf, 30 * ff);
  expect_rel_near(1.03e-12, y[1], 1e-9);
}

TEST(Admittance, SecondMomentOfOpenRcLine) {
  // For a distributed RC line (no load), m2 = -R C^2 / 3 is the classic
  // Elmore-like result from expanding sqrt-tanh.
  const double r = 100.0;
  const double c = 1 * pf;
  const util::Series y = distributed_line_admittance(r, 0.0, c, 0.0);
  expect_rel_near(-r * c * c / 3.0, y[2], 1e-9);
}

TEST(Admittance, LadderConvergesToDistributed) {
  // Pi-section ladders must converge to the exact distributed moments with
  // O(1/N^2) error.
  const double r = 72.44;
  const double l = 5.14 * nh;
  const double c = 1.10 * pf;
  const util::Series exact = distributed_line_admittance(r, l, c, 20 * ff);

  double prev_err = 1e300;
  for (std::size_t segments : {4, 8, 16, 32, 64}) {
    const util::Series approx = ladder_admittance(r, l, c, 20 * ff, segments);
    double err = 0.0;
    for (std::size_t k = 1; k <= 5; ++k) {
      err = std::max(err, std::abs((approx[k] - exact[k]) / exact[k]));
    }
    EXPECT_LT(err, prev_err) << segments << " segments";
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(Admittance, TreeChainMatchesSegmentedLine) {
  // A chain of lumped branches is an L-section ladder; compare against the
  // same network expressed with nested children.
  const net::Branch leaf = lumped_branch(10.0, 0.5 * nh, 0.2 * pf);
  const net::Branch mid = lumped_branch(10.0, 0.5 * nh, 0.2 * pf, {leaf});
  const net::Net chain(lumped_branch(10.0, 0.5 * nh, 0.2 * pf, {mid}));
  const util::Series y = net_admittance(chain);
  expect_rel_near(0.6e-12, y[1], 1e-9);  // total C
  // Driving-point m2 = -sum_{i,j} C_i C_j R_shared(i,j) (unlike the transfer
  // function's Elmore sum, both capacitor indices appear).  For the chain
  // with R_path = 10/20/30 ohm the shared-resistance double sum is 140.
  expect_rel_near(-(0.2e-12 * 0.2e-12) * 140.0, y[2], 1e-9);
}

TEST(Admittance, BranchedTreeSumsChildren) {
  const net::Net tree(lumped_branch(
      10.0, 0.0, 0.1 * pf,
      {lumped_branch(20.0, 0.0, 0.3 * pf), lumped_branch(40.0, 0.0, 0.5 * pf)}));
  const util::Series y = net_admittance(tree);
  expect_rel_near(0.9e-12, y[1], 1e-9);
  // m2 double sum with R_shared: (0,0)=10, (0,L)=(0,R)=(L,R)=10, (L,L)=30,
  // (R,R)=50 -> sum C_i C_j R_shared = 19.9e-24 ohm*F^2.
  expect_rel_near(-19.9e-24, y[2], 1e-9);
}

TEST(Admittance, LumpedSectionCarriesInductance) {
  // One lumped section, Y = sC / (1 + (R + sL) sC): expanding the geometric
  // series gives m1 = C, m2 = -R C^2, m3 = R^2 C^3 - L C^2 and
  // m4 = 2 R L C^3 - R^3 C^4.  The L terms are what separate an RLC tree
  // from an RC one.
  const double r = 25.0;
  const double l = 1.2 * nh;
  const double c = 0.4 * pf;
  const util::Series y = net_admittance(net::Net(lumped_branch(r, l, c)));
  EXPECT_NEAR(0.0, y[0], 1e-30);
  expect_rel_near(c, y[1], 1e-12);
  expect_rel_near(-r * c * c, y[2], 1e-12);
  expect_rel_near(r * r * c * c * c - l * c * c, y[3], 1e-12);
  expect_rel_near(2.0 * r * l * c * c * c - r * r * r * c * c * c * c, y[4], 1e-12);
}

TEST(Rational, ReproducesMomentsOfPaperCase) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series y =
      distributed_line_admittance(w.resistance, w.inductance, w.capacitance, 20 * ff);
  const RationalAdmittance fit(y);
  const util::Series back = fit.to_series(6);
  for (std::size_t k = 1; k <= 5; ++k) {
    expect_rel_near(y[k], back[k], 1e-9);
  }
  expect_rel_near(w.capacitance + 20 * ff, fit.total_capacitance(), 1e-9);
}

// The Eq-3 fit must be stable (poles in the open left half-plane) for every
// printed wire geometry across realistic receiver loads.
class RationalStability : public ::testing::TestWithParam<tech::PaperWireCase> {};

TEST_P(RationalStability, PolesInLeftHalfPlane) {
  const auto& c = GetParam();
  for (double load : {0.0, 20 * ff, 50 * ff}) {
    const util::Series y = distributed_line_admittance(
        c.parasitics.resistance, c.parasitics.inductance, c.parasitics.capacitance,
        load);
    const RationalAdmittance fit(y);
    ASSERT_EQ(2, fit.pole_count());
    for (int i = 0; i < 2; ++i) {
      EXPECT_LT(fit.poles()[static_cast<std::size_t>(i)].real(), 0.0)
          << "load " << load;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSixteenCases, RationalStability,
                         ::testing::ValuesIn(tech::paper_wire_cases().begin(),
                                             tech::paper_wire_cases().end()));

TEST(Rational, InductiveLinesHaveComplexPoles) {
  // The strongly inductive 5 mm wide line yields an underdamped fit — the
  // paper's Eq 5/7 branch must actually occur in practice.
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 2.5);
  const util::Series y =
      distributed_line_admittance(w.resistance, w.inductance, w.capacitance, 20 * ff);
  const RationalAdmittance fit(y);
  EXPECT_TRUE(fit.complex_poles());
}

TEST(Rational, PureCapacitorDegeneratesGracefully) {
  util::Series y(8);
  y[1] = 1 * pf;
  const RationalAdmittance fit(y);
  EXPECT_EQ(0, fit.pole_count());
  expect_rel_near(1 * pf, fit.total_capacitance(), 1e-12);
  EXPECT_DOUBLE_EQ(0.0, fit.a2());
}

TEST(Rational, SeriesRcIsFitExactly) {
  // Y = sC/(1 + sRC): moments m_k = C (-RC)^{k-1}.
  const double r = 50.0;
  const double c = 1 * pf;
  util::Series y(8);
  double m = c;
  for (std::size_t k = 1; k < 8; ++k) {
    y[k] = m;
    m *= -r * c;
  }
  const RationalAdmittance fit(y);
  expect_rel_near(c, fit.a1(), 1e-9);
  // One effective pole at -1/RC: b2 ~ 0 or the quadratic degenerates to it.
  const auto poles = fit.poles();
  bool found = false;
  for (int i = 0; i < fit.pole_count(); ++i) {
    if (std::abs(poles[static_cast<std::size_t>(i)] - util::Complex(-1.0 / (r * c), 0.0)) <
        0.01 / (r * c)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Rational, RejectsDcPath) {
  util::Series y(8);
  y[0] = 1.0;  // DC conductance -> not a valid capacitive load
  y[1] = 1 * pf;
  EXPECT_THROW(RationalAdmittance{y}, Error);
}

TEST(PiModel, MatchesKnownRcNetwork) {
  // Build moments of an actual pi network and recover its elements.
  const double c1 = 0.3 * pf;
  const double r = 40.0;
  const double c2 = 0.7 * pf;
  util::Series y(8);
  // Y = s c1 + s c2 / (1 + s r c2): m1 = c1 + c2, m_k = c2 (-r c2)^{k-1}.
  y[1] = c1 + c2;
  double m = c2 * (-r * c2);
  for (std::size_t k = 2; k < 8; ++k) {
    y[k] = m;
    m *= -r * c2;
  }
  const PiModel pi = synthesize_pi(y);
  EXPECT_TRUE(pi.realizable());
  expect_rel_near(c1, pi.c_near, 1e-9);
  expect_rel_near(r, pi.resistance, 1e-9);
  expect_rel_near(c2, pi.c_far, 1e-9);
}

TEST(PiModel, RcLineSynthesisIsRealizable) {
  const util::Series y = distributed_line_admittance(100.0, 0.0, 1 * pf, 0.0);
  const PiModel pi = synthesize_pi(y);
  EXPECT_TRUE(pi.realizable());
  expect_rel_near(1 * pf, pi.c_near + pi.c_far, 1e-9);
}

TEST(PiModel, InductiveLineBreaksRealizability) {
  // Kashyap-Krauter's observation (ref [6]): with significant inductance the
  // three-moment pi model stops being realizable.
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 2.5);
  const util::Series y =
      distributed_line_admittance(w.resistance, w.inductance, w.capacitance, 0.0);
  const PiModel pi = synthesize_pi(y);
  EXPECT_FALSE(pi.realizable());
}

TEST(Awe, TransferMomentsStartAtUnityDc) {
  const util::Series h = ladder_transfer(100.0, 5 * nh, 1 * pf, 20 * ff, 50);
  EXPECT_NEAR(1.0, h[0], 1e-12);
  // First transfer moment is minus the Elmore delay: negative.
  EXPECT_LT(h[1], 0.0);
}

TEST(Awe, LadderTransferConvergesToDistributed) {
  const util::Series exact = distributed_transfer(100.0, 5 * nh, 1 * pf, 20 * ff);
  const util::Series approx = ladder_transfer(100.0, 5 * nh, 1 * pf, 20 * ff, 64);
  for (std::size_t k = 0; k <= 5; ++k) {
    EXPECT_NEAR(exact[k], approx[k], 5e-3 * std::abs(exact[k]) + 1e-40) << "k=" << k;
  }
}

TEST(Awe, RcLineStepResponseMatchesElmoreScale) {
  // Reduced model of an RC line: stable, DC gain 1, and the unit ramp
  // response approaches t - Elmore as t grows.
  const double r = 200.0;
  const double c = 1 * pf;
  const util::Series h = distributed_transfer(r, 0.0, c, 0.0);
  const AweModel model = AweModel::make(h, 3);
  EXPECT_NEAR(1.0, model.dc_gain(), 1e-9);
  const double elmore = -h[1];  // = RC/2 for the open-ended line
  expect_rel_near(r * c / 2.0, elmore, 1e-9);
  const double t = 10.0 * r * c;
  expect_rel_near(t - elmore, model.unit_ramp_response(t), 1e-6);
}

TEST(Awe, ResponseToSaturatedRampIsMonotoneAndSettles) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(3.0, 0.8);
  const util::Series h =
      distributed_transfer(w.resistance, w.inductance, w.capacitance, 20 * ff);
  const AweModel model = AweModel::make(h, 3);
  const wave::Pwl input = wave::ramp(0.0, 100 * ps, 0.0, 1.8);
  const wave::Waveform out = model.response(input, 2 * ns, 1 * ps);
  EXPECT_NEAR(1.8, out.value_at(2 * ns), 0.02);
  EXPECT_GT(out.value_at(500 * ps), 1.5);
}

TEST(Awe, ThrowsWithoutEnoughMoments) {
  util::Series h(4);
  h[0] = 1.0;
  EXPECT_THROW(AweModel::make(h, 3), Error);
}

}  // namespace
}  // namespace rlceff::moments
