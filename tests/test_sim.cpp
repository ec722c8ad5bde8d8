// Physics validation of the transient simulator against closed forms.
#include "sim/transient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "circuit/builders.h"
#include "circuit/mna.h"
#include "sim/scenario_block.h"
#include "sim/solver_backend.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::sim {
namespace {

using namespace rlceff::units;
using ckt::ground;
using ckt::Netlist;
using ckt::NodeId;
using rlceff::testing::expect_rel_near;

TEST(DcOperatingPoint, ResistorDivider) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId mid = nl.node("mid");
  nl.add_vsource(a, ground, wave::Pwl({{0.0, 3.0}}));
  nl.add_resistor(a, mid, 1000.0);
  nl.add_resistor(mid, ground, 2000.0);
  const auto op = dc_operating_point(nl);
  EXPECT_NEAR(3.0, op.node_voltage[a], 1e-8);
  // gmin (1e-12 S) loads the divider by ~1e-9 V; tolerance allows for it.
  EXPECT_NEAR(2.0, op.node_voltage[mid], 1e-8);
}

TEST(DcOperatingPoint, InductorIsShort) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_vsource(a, ground, wave::Pwl({{0.0, 1.0}}));
  nl.add_resistor(a, b, 100.0);
  nl.add_inductor(b, ground, 1 * nh);
  const auto op = dc_operating_point(nl);
  EXPECT_NEAR(0.0, op.node_voltage[b], 1e-9);
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {1e-15, 1.0}}));
  nl.add_resistor(in, out, 1000.0);
  nl.add_capacitor(out, ground, 1 * pf);  // tau = 1 ns

  TransientOptions opt;
  opt.t_stop = 4 * ns;
  opt.dt = 2 * ps;
  const std::array<NodeId, 1> probes{out};
  const auto res = simulate(nl, opt, probes);
  // The quasi-step source is unresolved by dt, which shifts the response by
  // ~dt/2; the tolerance covers that first-step smear.
  for (double t = 0.2 * ns; t <= 3.5 * ns; t += 0.4 * ns) {
    const double expect = 1.0 - std::exp(-t / (1 * ns));
    EXPECT_NEAR(expect, res.at(out).value_at(t), 2e-3) << "t=" << t;
  }
}

TEST(Transient, TrapezoidalIsSecondOrder) {
  // Halving dt should shrink the error by ~4x.  The excitation must be
  // resolved by the step (a ramp, not a quasi-step) or the first-step
  // discontinuity error dominates and the observed order collapses to one.
  auto rc_error = [](double dt) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {0.4 * ns, 1.0}}));
    nl.add_resistor(in, out, 1000.0);
    nl.add_capacitor(out, ground, 1 * pf);  // tau = 1 ns
    TransientOptions opt;
    opt.t_stop = 1.6 * ns;
    opt.dt = dt;
    const std::array<NodeId, 1> probes{out};
    const auto res = simulate(nl, opt, probes);
    // Saturated-ramp response: superposition of two infinite-ramp responses.
    const double tau = 1 * ns;
    const double tr = 0.4 * ns;
    auto ramp_resp = [&](double t) {
      return t <= 0.0 ? 0.0 : (t - tau * (1.0 - std::exp(-t / tau))) / tr;
    };
    double max_err = 0.0;
    // Sample only at points both grids hit exactly, so linear interpolation
    // of the recorded waveform does not pollute the measured order.
    for (double t = 0.16 * ns; t <= 1.45 * ns; t += 0.16 * ns) {
      const double expect = ramp_resp(t) - ramp_resp(t - tr);
      max_err = std::max(max_err, std::abs(res.at(out).value_at(t) - expect));
    }
    return max_err;
  };
  const double coarse = rc_error(8 * ps);
  const double fine = rc_error(4 * ps);
  EXPECT_GT(coarse / fine, 3.0);
  EXPECT_LT(coarse / fine, 5.5);
}

TEST(Transient, RcRampResponseMatchesAnalytic) {
  // v_out for an infinite input ramp of slope m into RC:
  // v(t) = m (t - tau (1 - e^{-t/tau})).
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  const double slope = 1.0 / (1 * ns);
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {10 * ns, 10.0}}));
  nl.add_resistor(in, out, 500.0);
  nl.add_capacitor(out, ground, 1 * pf);  // tau = 0.5 ns

  TransientOptions opt;
  opt.t_stop = 3 * ns;
  opt.dt = 2 * ps;
  const std::array<NodeId, 1> probes{out};
  const auto res = simulate(nl, opt, probes);
  const double tau = 0.5 * ns;
  for (double t = 0.3 * ns; t <= 2.7 * ns; t += 0.6 * ns) {
    const double expect = slope * (t - tau * (1.0 - std::exp(-t / tau)));
    expect_rel_near(expect, res.at(out).value_at(t), 2e-3);
  }
}

TEST(Transient, RlCurrentRiseMatchesAnalytic) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {1e-15, 1.0}}));
  nl.add_resistor(in, mid, 50.0);
  nl.add_inductor(mid, ground, 5 * nh);  // tau = L/R = 100 ps

  TransientOptions opt;
  opt.t_stop = 600 * ps;
  opt.dt = 0.2 * ps;
  const std::array<NodeId, 1> probes{mid};
  const auto res = simulate(nl, opt, probes);
  // v_mid = V e^{-t/tau} (voltage across the inductor decays).
  const double tau = 100 * ps;
  for (double t = 50 * ps; t <= 500 * ps; t += 90 * ps) {
    const double expect = std::exp(-t / tau);
    EXPECT_NEAR(expect, res.at(mid).value_at(t), 3e-3) << "t=" << t;
  }
}

TEST(Transient, SeriesRlcUnderdampedMatchesAnalytic) {
  // Series R-L-C driven by a step: classic underdamped capacitor voltage.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId a = nl.node("a");
  const NodeId out = nl.node("out");
  const double r = 20.0;
  const double l = 5 * nh;
  const double c = 1 * pf;
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {1e-15, 1.0}}));
  nl.add_resistor(in, a, r);
  nl.add_inductor(a, out, l);
  nl.add_capacitor(out, ground, c);

  TransientOptions opt;
  opt.t_stop = 1.2 * ns;
  opt.dt = 0.1 * ps;
  const std::array<NodeId, 1> probes{out};
  const auto res = simulate(nl, opt, probes);

  const double alpha = r / (2.0 * l);
  const double w0 = 1.0 / std::sqrt(l * c);
  ASSERT_GT(w0, alpha);  // underdamped setup
  const double wd = std::sqrt(w0 * w0 - alpha * alpha);
  for (double t = 50 * ps; t <= 1.1 * ns; t += 105 * ps) {
    const double expect =
        1.0 - std::exp(-alpha * t) * (std::cos(wd * t) + alpha / wd * std::sin(wd * t));
    EXPECT_NEAR(expect, res.at(out).value_at(t), 5e-3) << "t=" << t;
  }
}

TEST(Transient, MatchedLineShowsHalfStepAndFlightDelay) {
  // Ideal step through Rs = Z0 into a low-loss line: the near end sits at
  // ~V/2 and the far (open) end doubles to ~V after one time of flight.
  Netlist nl;
  const NodeId src = nl.node("src");
  const NodeId in = nl.node("in");
  const double l_total = 5 * nh;
  const double c_total = 1 * pf;
  const double z0 = std::sqrt(l_total / c_total);  // ~70.7 ohm
  const double tf = std::sqrt(l_total * c_total);  // ~70.7 ps
  nl.add_vsource(src, ground, wave::Pwl({{0.0, 0.0}, {1 * ps, 1.0}}));
  nl.add_resistor(src, in, z0);
  const auto line = ckt::append_rlc_ladder(nl, in, 1.0 /*almost lossless*/, l_total,
                                           c_total, 160);

  TransientOptions opt;
  opt.t_stop = 500 * ps;
  opt.dt = 0.1 * ps;
  const std::array<NodeId, 2> probes{in, line.far_end};
  const auto res = simulate(nl, opt, probes);

  // Near end holds the divider level until the (absorbed) reflection.
  EXPECT_NEAR(0.5, res.at(in).value_at(0.8 * tf), 0.03);
  // Far end is quiet before the wave arrives...
  EXPECT_NEAR(0.0, res.at(line.far_end).value_at(0.6 * tf), 0.02);
  // ...and has doubled shortly after t_f.
  EXPECT_NEAR(1.0, res.at(line.far_end).value_at(1.6 * tf), 0.06);
  // Matched source: no second step at the near end.
  EXPECT_NEAR(1.0, res.at(in).value_at(4.0 * tf), 0.05);
}

TEST(Transient, ChargeDeliveredMatchesCapacitor) {
  // Integrate the source current of an RC charge-up: total charge = C*V.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {1e-15, 1.0}}));
  nl.add_resistor(in, out, 100.0);
  nl.add_capacitor(out, ground, 2 * pf);

  TransientOptions opt;
  opt.t_stop = 5 * ns;
  opt.dt = 1 * ps;
  const std::array<NodeId, 2> probes{in, out};
  const auto res = simulate(nl, opt, probes);
  // Current through R = (v_in - v_out)/R; trapezoidal sum over samples.
  const auto& win = res.at(in);
  const auto& wout = res.at(out);
  double q = 0.0;
  for (std::size_t k = 1; k < win.size(); ++k) {
    const double i1 = (win.value(k) - wout.value(k)) / 100.0;
    const double i0 = (win.value(k - 1) - wout.value(k - 1)) / 100.0;
    q += 0.5 * (i0 + i1) * (win.time(k) - win.time(k - 1));
  }
  expect_rel_near(2e-12, q, 1e-3);
}

TEST(Transient, CapacitorOnlyNodeIsHeldByGmin) {
  // n2 hangs on a coupling capacitor alone: its only path to ground is the
  // gmin conductance every node carries (1e-12 S).  That keeps the deck
  // solvable.  n2 starts at 0 V and follows n1's swing step for step, since
  // gmin leaks 1e-12 / 10 fF = 100 V/s per volt, under a microvolt here.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId n1 = nl.node("n1");
  const NodeId n2 = nl.node("n2");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {100 * ps, 1.0}}));
  nl.add_resistor(in, n1, 1000.0);
  nl.add_capacitor(n1, ground, 1 * pf);
  nl.add_capacitor(n1, n2, 10 * ff);

  TransientOptions opt;
  opt.t_stop = 3 * ns;
  opt.dt = 2 * ps;
  const std::array<NodeId, 2> probes{n1, n2};
  const auto res = simulate(nl, opt, probes);
  EXPECT_NEAR(0.0, res.at(n2).value_at(0.0), 1e-12);
  for (double t = 0.1 * ns; t <= 3.0 * ns; t += 0.3 * ns) {
    EXPECT_NEAR(res.at(n1).value_at(t), res.at(n2).value_at(t), 1e-6) << "t=" << t;
  }
  EXPECT_GT(res.at(n2).value_at(3.0 * ns), 0.9);
}

TEST(SolverSelection, NarrowLadderPicksBandedAndOverridesWin) {
  Netlist nl;
  const NodeId src = nl.node("src");
  nl.add_vsource(src, ground, wave::Pwl({{0.0, 0.0}, {100 * ps, 1.0}}));
  ckt::append_rlc_ladder(nl, src, 100.0, 1 * nh, 200e-15, 40);

  EXPECT_EQ(SolverKind::banded, selected_solver(nl));

  TransientOptions opt;
  opt.solver = SolverKind::sparse;
  EXPECT_EQ(SolverKind::sparse, selected_solver(nl, opt));
  opt.solver = SolverKind::dense;
  EXPECT_EQ(SolverKind::dense, selected_solver(nl, opt));
  opt.solver = SolverKind::banded;
  EXPECT_EQ(SolverKind::banded, selected_solver(nl, opt));
}

TEST(SolverSelection, KindNamesRoundTrip) {
  for (const SolverKind kind : {SolverKind::automatic, SolverKind::dense,
                                SolverKind::banded, SolverKind::sparse}) {
    EXPECT_EQ(kind, solver_kind_from_string(to_string(kind)));
  }
  EXPECT_THROW(solver_kind_from_string("cholesky"), Error);
}

TEST(SolverSelection, AllBackendsAgreeOnAnRlcLadder) {
  // One deck, three factorizations: waveforms must agree to LU roundoff.
  Netlist nl;
  const NodeId src = nl.node("src");
  nl.add_vsource(src, ground, wave::Pwl({{0.0, 0.0}, {50 * ps, 1.0}}));
  const auto line = ckt::append_rlc_ladder(nl, src, 200.0, 2 * nh, 400e-15, 30);
  nl.add_capacitor(line.far_end, ground, 20e-15);

  TransientOptions opt;
  opt.t_stop = 0.5 * ns;
  opt.dt = 1 * ps;
  const std::array<NodeId, 1> probes{line.far_end};

  opt.solver = SolverKind::dense;
  const auto dense = simulate(nl, opt, probes);
  opt.solver = SolverKind::banded;
  const auto banded = simulate(nl, opt, probes);
  opt.solver = SolverKind::sparse;
  const auto sparse = simulate(nl, opt, probes);

  const auto& wd = dense.at(line.far_end);
  const auto& wb = banded.at(line.far_end);
  const auto& ws = sparse.at(line.far_end);
  ASSERT_EQ(wd.size(), wb.size());
  ASSERT_EQ(wd.size(), ws.size());
  for (std::size_t k = 0; k < wd.size(); ++k) {
    EXPECT_NEAR(wd.value(k), wb.value(k), 1e-10);
    EXPECT_NEAR(wd.value(k), ws.value(k), 1e-10);
  }
}

// The banded backend's kept columns under the LinearSolver contract: every
// factorization, partial or full, must equal a fresh full factorization of
// the same matrix bitwise, across Newton-style iterations, a new image
// after clear(), and a new image saved without clear().
TEST(SolverBackend, BandedKeptColumnsFollowTheStaticImage) {
  constexpr std::size_t n = 30, bw = 3;
  std::vector<std::pair<std::size_t, std::size_t>> band;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = c > bw ? c - bw : 0; r <= std::min(n - 1, c + bw); ++r) {
      band.emplace_back(r, c);
    }
  }
  // One value per band entry; NaN marks an entry left unstamped.
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  auto draw = [&](std::size_t first) {
    std::vector<double> v(band.size(), std::nan(""));
    for (std::size_t k = 0; k < band.size(); ++k) {
      if (band[k].second < first) continue;
      v[k] = unit(gen);
      if (band[k].first == band[k].second) v[k] += 4.0;
    }
    return v;
  };
  // The oracle replays every accumulation into a fresh matrix.
  std::vector<std::vector<double>> stamps;
  detail::BandedSolver solver(n, bw);
  auto stamp = [&](const std::vector<double>& v) {
    for (std::size_t k = 0; k < band.size(); ++k) {
      if (!std::isnan(v[k])) solver.add(band[k].first, band[k].second, v[k]);
    }
    stamps.push_back(v);
  };
  std::vector<std::vector<double>> image;
  auto iterate = [&](std::size_t q) {
    for (int iter = 0; iter < 3; ++iter) {
      solver.load_static();
      stamps = image;
      stamp(draw(q));  // the MOSFET-like restamp: columns q.. only
      solver.factor();
      util::BandedMatrix fresh(n, bw, bw);
      for (const std::vector<double>& v : stamps) {
        for (std::size_t k = 0; k < band.size(); ++k) {
          if (!std::isnan(v[k])) fresh.add(band[k].first, band[k].second, v[k]);
        }
      }
      fresh.factor();
      std::vector<double> x(n), x_ref(n);
      for (std::size_t k = 0; k < n; ++k) x[k] = x_ref[k] = std::sin(1.0 + k);
      solver.solve_into(x);
      fresh.solve_into(x_ref);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x_ref[k]), std::bit_cast<std::uint64_t>(x[k]))
            << "q " << q << " iteration " << iter << " unknown " << k;
      }
    }
  };

  solver.clear();
  stamps.clear();
  stamp(draw(0));
  image = stamps;
  solver.save_static(20);
  iterate(20);

  solver.clear();  // a new image, as for a new (h, gmin)
  stamps.clear();
  stamp(draw(0));
  image = stamps;
  solver.save_static(10);
  iterate(10);

  solver.clear();
  stamps.clear();
  stamp(draw(0));
  image = stamps;
  solver.save_static(0);
  iterate(0);
  // A new image built on the restored one, saved without clear(): the
  // columns factored for the old image must not be kept.
  solver.load_static();
  stamps = image;
  stamp(draw(0));
  image = stamps;
  solver.save_static(15);
  iterate(15);
}

TEST(Transient, ProbeValidation) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 1.0}}));
  nl.add_resistor(in, ground, 100.0);
  TransientOptions opt;
  opt.t_stop = 1 * ps;
  opt.dt = 0.5 * ps;
  const std::array<NodeId, 1> probes{in};
  const auto res = simulate(nl, opt, probes);
  EXPECT_NO_THROW(res.at(in));
  EXPECT_THROW(res.at(42), Error);
  // The deck has no unknowns: its one node is the source's.
  for (std::size_t k = 0; k < res.at(in).size(); ++k) EXPECT_EQ(1.0, res.at(in).value(k));
}

// A run that ends mid-step takes a shortened final step, whose capacitor
// history is derived from the one kept at dt and the last accepted
// solution.  Its final sample must sit on the response a longer run samples
// around it: linear interpolation there is good to about 1e-6 V, while a
// history left at dt's coefficient misses by tens of millivolts.
TEST(Transient, ShortenedFinalStepLandsOnTheResponse) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  const NodeId out = nl.node("out");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 0.0}, {100 * ps, 1.0}}));
  nl.add_resistor(in, mid, 500.0);
  nl.add_capacitor(mid, ground, 0.5 * pf);
  nl.add_resistor(mid, out, 500.0);
  nl.add_capacitor(out, ground, 1 * pf);
  const std::array<NodeId, 2> probes{mid, out};
  TransientOptions opt;
  opt.dt = 2 * ps;
  opt.t_stop = 301.3 * ps;
  const TransientResult shortened = simulate(nl, opt, probes);
  opt.t_stop = 306 * ps;
  const TransientResult longer = simulate(nl, opt, probes);
  for (const NodeId n : probes) {
    const wave::Waveform& w = shortened.at(n);
    ASSERT_DOUBLE_EQ(301.3 * ps, w.time(w.size() - 1));
    EXPECT_NEAR(longer.at(n).value_at(301.3 * ps), w.value(w.size() - 1), 1e-5);
  }
}

// A source, a series R-L pair to ground and nothing else: the source holds
// its node and the pair folds, so no unknown is left.  The run still steps,
// and its probe reads the source's value at every sample, alone and as
// lanes of a block.
TEST(Transient, DeckWithoutUnknownsReadsItsSources) {
  const auto deck = [](double t_rise) {
    Netlist nl;
    const NodeId a = nl.node("a");
    const NodeId b = nl.node("b");
    nl.add_vsource(a, ground, wave::Pwl({{0.0, 0.0}, {t_rise, 1.0}}));
    nl.add_resistor(a, b, 10.0);
    nl.add_inductor(b, ground, 1 * nh);
    return nl;
  };
  const std::array<Netlist, 2> decks{deck(3 * ps), deck(7 * ps)};
  ASSERT_EQ(0u, ckt::MnaStructure(decks[0]).unknown_count());
  TransientOptions opt;
  opt.t_stop = 10.25 * ps;
  opt.dt = 0.5 * ps;
  const NodeId a = 1;
  const std::array<NodeId, 1> probes{a};
  const std::array<BlockScenario, 2> lanes{BlockScenario{&decks[0], opt.t_stop, nullptr},
                                           BlockScenario{&decks[1], opt.t_stop, nullptr}};
  const std::vector<BlockOutcome> block = simulate_block(lanes, opt, probes);
  for (std::size_t k = 0; k < decks.size(); ++k) {
    const wave::Pwl& source = decks[k].vsources()[0].voltage;
    const TransientResult res = simulate(decks[k], opt, probes);
    ASSERT_EQ(22u, res.at(a).size());
    ASSERT_TRUE(block[k].result.has_value());
    for (std::size_t i = 0; i < res.at(a).size(); ++i) {
      EXPECT_EQ(source.value_at(res.at(a).time(i)), res.at(a).value(i));
      EXPECT_EQ(res.at(a).value(i), block[k].result->at(a).value(i));
    }
  }
}

// Reduced against unreduced: probing every mid node of an RLC ladder keeps
// each one, with its inductor's branch row, in the system.  The two runs
// integrate the same discrete circuit, so their far ends agree to rounding
// plus the 1e-12 S gmin the kept mid nodes carry: 40 of them at about 1 V
// draw at most 4e-11 A, which the line's 100 ohm turns into at most 4e-9 V.
TEST(ReducedMna, FoldedLadderMatchesTheUnfoldedOne) {
  constexpr std::size_t kSegments = 40;
  const auto deck = [](double t_rise) {
    Netlist nl;
    const NodeId src = nl.node("src");
    nl.add_vsource(src, ground, wave::Pwl({{5 * ps, 0.0}, {5 * ps + t_rise, 1.0}}));
    const ckt::LadderNodes line =
        ckt::append_rlc_ladder(nl, src, 100.0, 4 * nh, 0.8 * pf, kSegments);
    nl.add_capacitor(line.far_end, ground, 20 * ff);
    return std::pair{std::move(nl), line.far_end};
  };
  const std::array<std::pair<Netlist, NodeId>, 3> decks{deck(20 * ps), deck(60 * ps),
                                                        deck(150 * ps)};
  const NodeId far = decks[0].second;
  std::vector<NodeId> every_mid{far};
  for (const ckt::Inductor& l : decks[0].first.inductors()) every_mid.push_back(l.a);
  const std::array<NodeId, 1> far_only{far};
  EXPECT_EQ(kSegments, ckt::MnaStructure(decks[0].first, far_only).unknown_count());
  EXPECT_EQ(3 * kSegments, ckt::MnaStructure(decks[0].first, every_mid).unknown_count());

  TransientOptions opt;
  opt.t_stop = 0.6 * ns;
  opt.dt = 1 * ps;
  constexpr double kTol = 1e-8;
  std::vector<BlockScenario> lanes;
  for (const auto& d : decks) lanes.push_back({&d.first, opt.t_stop, nullptr});
  const std::vector<BlockOutcome> reduced = simulate_block(lanes, opt, far_only);
  const std::vector<BlockOutcome> unreduced = simulate_block(lanes, opt, every_mid);
  for (std::size_t k = 0; k < decks.size(); ++k) {
    const wave::Waveform one = simulate(decks[k].first, opt, far_only).at(far);
    const wave::Waveform all = simulate(decks[k].first, opt, every_mid).at(far);
    ASSERT_TRUE(reduced[k].result.has_value() && unreduced[k].result.has_value());
    const wave::Waveform& block_one = reduced[k].result->at(far);
    const wave::Waveform& block_all = unreduced[k].result->at(far);
    ASSERT_EQ(one.size(), all.size());
    ASSERT_EQ(one.size(), block_one.size());
    ASSERT_EQ(one.size(), block_all.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < one.size(); ++i) {
      worst = std::max(worst, std::abs(one.value(i) - all.value(i)));
      EXPECT_NEAR(block_one.value(i), block_all.value(i), kTol) << "lane " << k << " i=" << i;
    }
    EXPECT_LT(worst, kTol) << "lane " << k;
    EXPECT_GT(one.value(one.size() - 1), 0.5);  // the edge reached the far end
  }
}

}  // namespace
}  // namespace rlceff::sim
