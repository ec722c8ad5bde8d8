// Allocation guard for the model-only hot path and the transient kernel.
//
// The moment cascade, the Ceff fixed points, the cell-table lookup and the
// structural lint screen run once or more per net on every Tier A/B slot;
// the banded LU refactors and solves once or more per transient step, and
// the transient stepper's time loop runs once per step.  None of them may
// touch the heap.  This binary replaces the global operator new
// (testkit/alloc_count.h), so it builds on its own instead of inside
// rlceff_tests, and every count below is exact and deterministic.
#include "testkit/alloc_count.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "charlib/table.h"
#include "circuit/netlist.h"
#include "core/ceff.h"
#include "core/charge.h"
#include "lint/lint.h"
#include "moments/admittance.h"
#include "moments/rational.h"
#include "net/net.h"
#include "sim/scenario_block.h"
#include "sim/transient.h"
#include "tech/inverter.h"
#include "tech/technology.h"
#include "util/linalg.h"
#include "util/units.h"
#include "waveform/pwl.h"

namespace rlceff {
namespace {

using namespace rlceff::units;
using testkit::count_allocations;

// A clean multi-branch tree: a distributed trunk fanning out to a lumped
// stub and a two-section distributed branch with a child of its own, every
// leaf probed.
net::Net multi_branch_net() {
  net::Branch leaf;
  leaf.sections.push_back({30.0, 0.4 * nh, 40 * ff, net::SectionKind::distributed});
  leaf.c_load = 8 * ff;
  leaf.probe = "leaf";

  net::Branch routed;
  routed.sections.push_back({20.0, 0.3 * nh, 60 * ff, net::SectionKind::distributed});
  routed.sections.push_back({5.0, 0.0, 10 * ff, net::SectionKind::lumped});
  routed.c_load = 15 * ff;
  routed.probe = "routed";
  routed.children.push_back(leaf);

  net::Branch stub;
  stub.sections.push_back({12.0, 0.1 * nh, 5 * ff, net::SectionKind::lumped});
  stub.c_load = 20 * ff;
  stub.probe = "stub";

  net::Branch root;
  root.sections.push_back({80.0, 2.0 * nh, 400 * ff, net::SectionKind::distributed});
  root.children.push_back(routed);
  root.children.push_back(stub);
  return net::Net(std::move(root));
}

// A transition table shaped like a characterized driver's (ramp time grows
// with load and input slew), and the TransitionFn the Ceff flow binds to it.
charlib::Table2D transition_table() {
  const std::vector<double> slews{50 * ps, 100 * ps, 200 * ps};
  const std::vector<double> loads{50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf};
  std::vector<double> values;
  for (double slew : slews) {
    for (double load : loads) values.push_back(0.2 * slew + 180.0 * load + 10 * ps);
  }
  return {slews, loads, values};
}

TEST(Allocations, CounterSeesTheHeap) {
  EXPECT_GE(count_allocations([] { std::vector<double> v(16, 1.0); }), 1u);
  EXPECT_EQ(0u, count_allocations([] {}));
}

TEST(Allocations, NetAdmittanceAllocatesNothing) {
  const net::Net net = multi_branch_net();
  util::Series y(moments::default_order);
  EXPECT_EQ(0u, count_allocations([&] { y = moments::net_admittance(net); }));
  EXPECT_GT(y[1], 0.0);
  EXPECT_EQ(0u, count_allocations([&] { y = moments::net_admittance(net, 3); }));
}

TEST(Allocations, FastNetAdmittanceAllocatesNothingOnceWarm) {
  // The flattened walk keeps thread-local scratch: the first call on a
  // thread sizes it, later calls on nets no larger reuse it.
  const net::Net net = multi_branch_net();
  util::Series y = moments::fast_net_admittance(net);
  EXPECT_EQ(0u, count_allocations([&] { y = moments::fast_net_admittance(net); }));
  EXPECT_GT(y[1], 0.0);
}

TEST(Allocations, CeffIterationsAllocateNothing) {
  const net::Net net = multi_branch_net();
  const core::ChargeModel load{moments::RationalAdmittance(moments::net_admittance(net))};
  const charlib::Table2D table = transition_table();
  const core::TransitionFn transition = [&table](double c) {
    return table.lookup(100 * ps, c);
  };
  const double f = 0.6;
  core::CeffIteration it1;
  core::CeffIteration it2;
  core::CeffIteration single;
  core::CeffIteration it3;
  EXPECT_EQ(0u, count_allocations([&] { it1 = core::iterate_ceff1(load, f, transition); }));
  EXPECT_EQ(0u, count_allocations([&] {
              it2 = core::iterate_ceff2(load, f, it1.ramp_time, transition);
            }));
  EXPECT_EQ(0u, count_allocations(
                    [&] { single = core::iterate_ceff_single(load, transition); }));
  EXPECT_EQ(0u, count_allocations([&] {
              it3 = core::iterate_ceff3(load, 0.9, 2.0 * it1.ramp_time, transition);
            }));
  EXPECT_GT(it1.iterations, 1);
  EXPECT_GT(it2.iterations, 1);
  EXPECT_GT(single.iterations, 1);
  EXPECT_GT(it3.iterations, 0);
}

TEST(Allocations, TableLookupAllocatesNothing) {
  const charlib::Table2D table = transition_table();
  double sum = 0.0;
  EXPECT_EQ(0u, count_allocations([&] {
              // Inside the grid, on its edges and extrapolated past them.
              for (double slew : {10 * ps, 50 * ps, 130 * ps, 400 * ps}) {
                for (double load : {1 * ff, 200 * ff, 700 * ff, 5 * pf}) {
                  sum += table.lookup(slew, load);
                }
              }
            }));
  EXPECT_GT(sum, 0.0);
}

TEST(Allocations, StructuralLintOfACleanTreeAllocatesNothing) {
  const net::Net net = multi_branch_net();
  lint::Options structural;
  structural.conditioning = false;
  structural.model = false;
  std::size_t findings = 1;
  EXPECT_EQ(0u, count_allocations([&] {
              findings = lint::lint_net(net, structural).diagnostics.size();
            }));
  EXPECT_EQ(0u, findings);
}

TEST(Allocations, BandedRefactorAndSolvesAllocateNothingAfterTheFirstFactor) {
  // A Newton-shaped use: a static image, a first full factorization (which
  // sizes the packed factor lists), then refactors of the restamped tail
  // columns and both solves.
  const std::size_t n = 48, bw = 3, q = 40;
  util::BandedMatrix image(n, bw, bw);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r > bw ? r - bw : 0; c <= std::min(n - 1, r + bw); ++c) {
      if ((r + 2 * c) % 3 == 0 && r != c) continue;  // exact zeros inside the band
      image.add(r, c, r == c ? 4.0 : std::sin(static_cast<double>(r + 3 * c)));
    }
  }
  util::BandedMatrix a(n, bw, bw);
  a.copy_values_from(image);
  a.factor();
  std::vector<double> x(n, 1.0);
  for (int iter = 0; iter < 3; ++iter) {
    a.copy_values_from(image, q);
    a.add(q + 1, q, 0.5 * iter);  // the restamp
    EXPECT_EQ(0u, count_allocations([&] { a.factor_from(q); }));
    EXPECT_EQ(0u, count_allocations([&] { a.solve_into(x); }));
  }
  a.copy_values_from(image);
  EXPECT_EQ(0u, count_allocations([&] { a.factor(); }));
  EXPECT_TRUE(std::isfinite(x[0]));
}

// An RLC ladder driven by a ramp: the replay decks' shape.
ckt::Netlist ramp_line_deck(double slew, std::size_t segments) {
  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  nl.add_vsource(in, ckt::ground, wave::Pwl({{10 * ps, 0.0}, {10 * ps + slew, 1.0}}));
  ckt::NodeId prev = in;
  for (std::size_t k = 0; k < segments; ++k) {
    const ckt::NodeId mid = nl.add_node();
    const ckt::NodeId next = nl.add_node();
    nl.add_resistor(prev, mid, 2.0);
    nl.add_inductor(mid, next, 5e-12);
    nl.add_capacitor(next, ckt::ground, 3 * ff);
    prev = next;
  }
  nl.add_capacitor(prev, ckt::ground, 20 * ff);
  return nl;
}

// The time loop never allocates: a run over twice the horizon makes exactly
// as many allocations as one over the horizon.  The step is a power of two,
// so both horizons are exact multiples of it and every lane ends on a full
// step; the measured-edge stop is off, so every run steps to its horizon.
struct TimeLoopDecks {
  static constexpr std::size_t segments = 10;
  std::vector<ckt::Netlist> decks;
  std::vector<ckt::NodeId> probes{1, static_cast<ckt::NodeId>(1 + 2 * segments)};
  sim::TransientOptions opt;
  double horizon;

  TimeLoopDecks() {
    for (double slew : {20 * ps, 60 * ps, 110 * ps}) decks.push_back(ramp_line_deck(slew, segments));
    opt.dt = std::ldexp(1.0, -40);  // about 0.9 ps
    horizon = 256 * opt.dt;
  }
};

// The superposed lane loop (the basis step, each lane's weighted sums,
// recording and edge bookkeeping) never allocates: a group over twice the
// horizon makes exactly as many allocations as one over the horizon.  One
// lane ends half a step past each horizon, so a shortened final step, its
// tail solver and the basis snapshots it reads are in both runs.
TEST(Allocations, SuperposedLaneLoopAllocatesNothing) {
  const TimeLoopDecks d;
  auto allocations = [&](double t_stop) {
    std::vector<sim::BlockScenario> lanes;
    for (const ckt::Netlist& deck : d.decks) lanes.push_back({&deck, t_stop, nullptr});
    lanes.back().t_stop += 0.5 * d.opt.dt;
    return count_allocations([&] {
      const std::vector<sim::BlockOutcome> out = sim::simulate_block(lanes, d.opt, d.probes);
      for (const sim::BlockOutcome& o : out) {
        ASSERT_TRUE(o.result.has_value());
        EXPECT_GT(o.result->superposed_samples(), 0u);
      }
    });
  };
  EXPECT_EQ(allocations(d.horizon), allocations(2 * d.horizon));
}

TEST(Allocations, OneLaneTimeLoopAllocatesNothing) {
  const TimeLoopDecks d;
  auto allocations = [&](double t_stop) {
    sim::TransientOptions opt = d.opt;
    opt.t_stop = t_stop;
    return count_allocations([&] {
      const sim::TransientResult r = sim::simulate(d.decks[0], opt, d.probes);
      EXPECT_EQ(static_cast<std::size_t>(t_stop / opt.dt) + 1, r.at(d.probes[1]).size());
    });
  };
  EXPECT_EQ(allocations(d.horizon), allocations(2 * d.horizon));
}

// The Newton time loop (gate-term records, predictor state, work counts)
// never allocates either: the characterization deck, an inverter into a
// capacitor whose input falls mid-run, over one horizon and over two, with
// the measured-edge stop off.
TEST(Allocations, NewtonTimeLoopAllocatesNothing) {
  const tech::Technology technology = tech::Technology::cmos180();
  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  const ckt::NodeId out = nl.node("out");
  sim::TransientOptions opt;
  opt.dt = std::ldexp(1.0, -42);  // about 0.23 ps
  const double horizon = 256 * opt.dt;
  nl.add_vsource(in, ckt::ground,
                 wave::Pwl({{0.25 * horizon, technology.vdd}, {0.75 * horizon, 0.0}}));
  tech::add_inverter(nl, technology, tech::Inverter{50.0}, in, out);
  nl.add_capacitor(out, ckt::ground, 100 * ff);
  const std::vector<ckt::NodeId> probes{out};
  auto allocations = [&](double t_stop) {
    opt.t_stop = t_stop;
    return count_allocations([&] {
      const sim::TransientResult r = sim::simulate(nl, opt, probes);
      EXPECT_EQ(static_cast<std::size_t>(t_stop / opt.dt) + 1, r.at(out).size());
      EXPECT_GT(r.newton_iterations(), r.at(out).size());
    });
  };
  EXPECT_EQ(allocations(horizon), allocations(2 * horizon));
}

}  // namespace
}  // namespace rlceff
