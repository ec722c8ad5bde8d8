// Unit tests for the alpha-power-law MOSFET model.
#include "circuit/mosfet.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "test_helpers.h"

namespace rlceff::ckt {
namespace {

using rlceff::testing::expect_rel_near;

MosfetParams nominal() {
  MosfetParams p;
  p.vth = 0.45;
  p.alpha = 1.3;
  p.k_sat = 440.0;
  p.kv = 0.8;
  p.lambda = 0.06;
  return p;
}

TEST(Mosfet, OffBelowThreshold) {
  const auto e = eval_nmos(nominal(), 1e-6, 0.3, 1.0);
  EXPECT_DOUBLE_EQ(0.0, e.id);
  EXPECT_DOUBLE_EQ(0.0, e.gm);
  EXPECT_DOUBLE_EQ(0.0, e.gds);
}

TEST(Mosfet, SaturationCurrentScalesWithWidth) {
  const auto p = nominal();
  const auto e1 = eval_nmos(p, 1e-6, 1.8, 1.8);
  const auto e2 = eval_nmos(p, 3e-6, 1.8, 1.8);
  expect_rel_near(3.0, e2.id / e1.id, 1e-12);
}

TEST(Mosfet, SaturationCurrentFollowsAlphaPower) {
  const auto p = nominal();
  const auto ea = eval_nmos(p, 1e-6, 1.0, 1.8);
  const auto eb = eval_nmos(p, 1e-6, 1.8, 1.8);
  // Id ~ (Vgs - Vth)^alpha * (1 + lambda Vds); same Vds cancels the CLM term.
  const double expect = std::pow((1.8 - 0.45) / (1.0 - 0.45), p.alpha);
  expect_rel_near(expect, eb.id / ea.id, 1e-10);
}

TEST(Mosfet, TriodeCurrentVanishesAtZeroVds) {
  const auto e = eval_nmos(nominal(), 1e-6, 1.8, 0.0);
  EXPECT_DOUBLE_EQ(0.0, e.id);
  EXPECT_GT(e.gds, 0.0);  // finite on-conductance
}

TEST(Mosfet, ContinuousAcrossSaturationBoundary) {
  const auto p = nominal();
  const double vgs = 1.8;
  const double vdsat = p.kv * std::pow(vgs - p.vth, 0.5 * p.alpha);
  const auto lo = eval_nmos(p, 1e-6, vgs, vdsat - 1e-9);
  const auto hi = eval_nmos(p, 1e-6, vgs, vdsat + 1e-9);
  expect_rel_near(lo.id, hi.id, 1e-6);
  expect_rel_near(lo.gm, hi.gm, 1e-4);
  EXPECT_NEAR(lo.gds, hi.gds, 1e-4 * std::abs(lo.gds) + 1e-9);
}

// Analytic gm/gds must match numerical differentiation over both regions.
class MosfetDerivatives : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(MosfetDerivatives, MatchNumericalDifferentiation) {
  const auto p = nominal();
  const double w = 1e-6;
  const auto [vgs, vds] = GetParam();
  const double h = 1e-7;
  const auto e = eval_nmos(p, w, vgs, vds);
  const double gm_num =
      (eval_nmos(p, w, vgs + h, vds).id - eval_nmos(p, w, vgs - h, vds).id) / (2.0 * h);
  const double gds_num =
      (eval_nmos(p, w, vgs, vds + h).id - eval_nmos(p, w, vgs, vds - h).id) / (2.0 * h);
  EXPECT_NEAR(gm_num, e.gm, 1e-5 * std::max(1e-6, std::abs(gm_num)));
  EXPECT_NEAR(gds_num, e.gds, 1e-5 * std::max(1e-6, std::abs(gds_num)));
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivatives,
    ::testing::Values(std::pair{0.8, 0.1}, std::pair{0.8, 0.5}, std::pair{0.8, 1.5},
                      std::pair{1.2, 0.05}, std::pair{1.2, 0.9}, std::pair{1.8, 0.2},
                      std::pair{1.8, 0.7}, std::pair{1.8, 1.6}, std::pair{0.6, 0.3},
                      std::pair{1.5, 1.1}));

TEST(Mosfet, ReverseConductionBySymmetry) {
  // With vds < 0 the device conducts backwards: current equals the forward
  // evaluation with the terminals relabeled, negated.
  const auto p = nominal();
  const double w = 1e-6;
  const double vg = 1.8;
  // Forward reference: source at 0, drain at 0.5 -> vgs = 1.8, vds = 0.5.
  const auto fwd = eval_nmos(p, w, vg, 0.5);
  // Reverse: drain terminal at 0, source terminal at 0.5 (so vds = -0.5 and
  // vgs measured from the source terminal = 1.3).
  const auto rev = eval_nmos(p, w, vg - 0.5, -0.5);
  expect_rel_near(-fwd.id, rev.id, 1e-12);
}

TEST(Mosfet, ReverseDerivativesMatchNumerical) {
  const auto p = nominal();
  const double w = 1e-6;
  const double vgs = 1.0;
  const double vds = -0.7;
  const double h = 1e-7;
  const auto e = eval_nmos(p, w, vgs, vds);
  const double gm_num =
      (eval_nmos(p, w, vgs + h, vds).id - eval_nmos(p, w, vgs - h, vds).id) / (2.0 * h);
  const double gds_num =
      (eval_nmos(p, w, vgs, vds + h).id - eval_nmos(p, w, vgs, vds - h).id) / (2.0 * h);
  EXPECT_NEAR(gm_num, e.gm, 1e-4 * std::abs(gm_num) + 1e-9);
  EXPECT_NEAR(gds_num, e.gds, 1e-4 * std::abs(gds_num) + 1e-9);
}

TEST(Mosfet, PmosMirrorsNmos) {
  const auto p = nominal();
  const double w = 1e-6;
  // P device conducting: vgs = -1.8, vds = -0.9.
  const auto pe = eval_pmos(p, w, -1.8, -0.9);
  const auto ne = eval_nmos(p, w, 1.8, 0.9);
  expect_rel_near(-ne.id, pe.id, 1e-12);
  EXPECT_LT(pe.id, 0.0);  // current flows source -> drain
  expect_rel_near(ne.gm, pe.gm, 1e-12);
  expect_rel_near(ne.gds, pe.gds, 1e-12);
}

TEST(Mosfet, PmosOffWhenGateHigh) {
  const auto e = eval_pmos(nominal(), 1e-6, 0.0, -1.8);
  EXPECT_DOUBLE_EQ(0.0, e.id);
}

TEST(Mosfet, MonotonicInVgsAndVds) {
  const auto p = nominal();
  double prev = -1.0;
  for (double vgs = 0.5; vgs <= 1.8; vgs += 0.1) {
    const double id = eval_nmos(p, 1e-6, vgs, 1.8).id;
    EXPECT_GE(id, prev);
    prev = id;
  }
  prev = -1.0;
  for (double vds = 0.0; vds <= 1.8; vds += 0.1) {
    const double id = eval_nmos(p, 1e-6, 1.8, vds).id;
    EXPECT_GE(id, prev);
    prev = id;
  }
}

std::array<std::uint64_t, 3> bits(const MosfetEval& e) {
  return {std::bit_cast<std::uint64_t>(e.id), std::bit_cast<std::uint64_t>(e.gm),
          std::bit_cast<std::uint64_t>(e.gds)};
}

// The gate terms and the drain terms compose to the one-shot evaluation bit
// for bit, in every region and for both polarities; gate terms kept from one
// evaluation serve every vds at the same overdrive.
TEST(Mosfet, GateTermsComposeBitwise) {
  const auto p = nominal();
  const double w = 1e-6;
  // N-device (vgs, vds): vdsat is about 0.97 V at vgs = 1.8 and about 0.93 V
  // at the reverse cases' forward overdrive of 1.25 V.
  struct Bias {
    double vgs, vds;
    bool on;
  };
  const Bias biases[] = {
      {0.3, 1.0, false},   // off
      {-1.0, -0.3, false},  // reverse, off
      {1.8, 1.6, true},    // saturation
      {1.8, 0.2, true},    // triode
      {1.8, 0.0, true},    // triode at vds = 0
      {0.5, -1.2, true},   // reverse saturation
      {1.0, -0.7, true},   // reverse triode
  };
  for (const Bias& b : biases) {
    for (const bool pmos : {false, true}) {
      // A P device conducts at the mirrored bias.
      const double vgs = pmos ? -b.vgs : b.vgs;
      const double vds = pmos ? -b.vds : b.vds;
      const MosfetEval one_shot = pmos ? eval_pmos(p, w, vgs, vds) : eval_nmos(p, w, vgs, vds);
      int gate_calls = 0;
      const MosfetEval composed = eval_mosfet(p, pmos, vgs, vds, [&](double vgt) {
        ++gate_calls;
        return gate_terms(p, w, vgt);
      });
      EXPECT_EQ(bits(one_shot), bits(composed)) << "vgs " << vgs << " vds " << vds;
      EXPECT_EQ(b.on ? 1 : 0, gate_calls);
      EXPECT_EQ(b.on, one_shot.id != 0.0 || one_shot.gds != 0.0);
    }
  }

  // Gate terms computed once, reused across saturation and triode.
  const double vgs = 1.4;
  const MosfetGateTerms kept = gate_terms(p, w, vgs - p.vth);
  for (const double vds : {0.0, 0.1, 0.4, 0.9, 1.5}) {
    EXPECT_EQ(bits(eval_nmos(p, w, vgs, vds)), bits(drain_terms(p, kept, vds)));
    const MosfetEval reused = eval_mosfet(p, true, -vgs, -vds, [&](double vgt) {
      EXPECT_EQ(kept.vgt, vgt);
      return kept;
    });
    EXPECT_EQ(bits(eval_pmos(p, w, -vgs, -vds)), bits(reused));
  }
}

}  // namespace
}  // namespace rlceff::ckt
