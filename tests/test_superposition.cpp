// Superposed runs (sim::simulate and sim::simulate_block on a linear deck
// with one source) against direct stepping of the same circuit: a deck that
// splits the source across two series sources, which the selection routes to
// the stepper.  Every sample must agree within 1e-12 V, on a Fig-7 replay
// line, a branched tree and a coupled pair with mutual inductance, on every
// backend.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "circuit/builders.h"
#include "circuit/netlist.h"
#include "net/coupled.h"
#include "net/net.h"
#include "sim/scenario_block.h"
#include "sim/transient.h"
#include "tech/wire.h"
#include "util/units.h"
#include "waveform/pwl.h"

namespace rlceff {
namespace {

using namespace units;

enum class Load { fig7_line, tree, coupled_pair };

const char* to_string(Load load) {
  switch (load) {
    case Load::fig7_line:
      return "fig7_line";
    case Load::tree:
      return "tree";
    default:
      return "coupled_pair";
  }
}

net::Net tree_net() {
  net::Branch root;
  root.sections = {{60.0, 0.4e-9, 80 * ff}};
  net::Branch left;
  left.sections = {{90.0, 0.6e-9, 120 * ff}};
  left.c_load = 15 * ff;
  net::Branch right;
  right.sections = {{40.0, 0.3e-9, 50 * ff}, {70.0, 0.5e-9, 90 * ff}};
  right.c_load = 25 * ff;
  root.children = {left, right};
  return net::Net(root);
}

// Hangs the load off `out` (and, for the coupled pair, its quiet net off a
// held node), returning the probes: `out` and every leaf.
std::vector<ckt::NodeId> append_load(ckt::Netlist& nl, ckt::NodeId out, Load load) {
  std::vector<ckt::NodeId> probes{out};
  if (load == Load::coupled_pair) {
    const tech::WireParasitics wire = *tech::find_paper_wire_case(3.0, 1.6);
    net::CoupledGroup group;
    group.add_net(tech::line_net(wire, 20 * ff), "victim");
    group.add_net(tech::line_net(wire, 20 * ff), "quiet");
    group.couple_capacitance({0, 0}, {1, 0}, 150 * ff);
    group.couple_inductance({0, 0}, {1, 0}, 0.4);
    const ckt::NodeId quiet = nl.add_node();
    nl.add_resistor(quiet, ckt::ground, 120.0);
    const std::vector<ckt::NodeId> from{out, quiet};
    const ckt::CoupledDeckNodes nodes = ckt::append_coupled_group(nl, from, group, 12);
    for (const ckt::NetDeckNodes& n : nodes.nets) {
      probes.insert(probes.end(), n.leaves.begin(), n.leaves.end());
    }
    return probes;
  }
  const net::Net net = load == Load::tree
                           ? tree_net()
                           : tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);
  const ckt::NetDeckNodes nodes =
      ckt::append_net(nl, out, net, load == Load::tree ? 8 : 40);
  probes.insert(probes.end(), nodes.leaves.begin(), nodes.leaves.end());
  return probes;
}

// One deck the selection superposes (one grounded source at "out") and the
// same circuit stepped: `source` from a new node to ground, and a zero
// source from "out" to that node.  Node ids agree up to the extra node.
struct DeckPair {
  ckt::Netlist superposed;
  ckt::Netlist stepped;
  std::vector<ckt::NodeId> probes;
};

DeckPair make_decks(Load load, const wave::Pwl& source) {
  DeckPair d;
  const ckt::NodeId out = d.superposed.node("out");
  d.superposed.add_vsource(out, ckt::ground, source);
  d.probes = append_load(d.superposed, out, load);

  const ckt::NodeId out2 = d.stepped.node("out");
  append_load(d.stepped, out2, load);
  const ckt::NodeId mid = d.stepped.node("mid");
  d.stepped.add_vsource(mid, ckt::ground, source);
  d.stepped.add_vsource(out2, mid, wave::Pwl({{0.0, 0.0}}));
  return d;
}

void expect_close(const sim::TransientResult& got, const sim::TransientResult& want,
                  std::span<const ckt::NodeId> probes, const std::string& what,
                  double tol = 1e-12) {
  for (ckt::NodeId p : probes) {
    const wave::Waveform& a = got.at(p);
    const wave::Waveform& b = want.at(p);
    ASSERT_EQ(a.size(), b.size()) << what << ", node " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.time(i)), std::bit_cast<std::uint64_t>(b.time(i)))
          << what << ", node " << p << ", t[" << i << "]";
      ASSERT_NEAR(a.value(i), b.value(i), tol) << what << ", node " << p << ", v[" << i << "]";
    }
  }
}

class SuperposedVsStepped
    : public ::testing::TestWithParam<std::tuple<Load, sim::SolverKind>> {};

TEST_P(SuperposedVsStepped, MatchesDirectSteppingWithin1e12Volt) {
  const auto [load, solver] = GetParam();
  // A two-ramp from 0 and a source already moving at t = 0 (0.2 V and
  // rising there), each to an on-grid and an off-grid horizon, with the
  // measured-edge stop off and on.
  const std::vector<wave::Pwl> sources{
      wave::two_ramp(12 * ps, 0.4, 35 * ps, 90 * ps, 1.0),
      wave::Pwl({{-20 * ps, 0.0}, {30 * ps, 0.5}, {80 * ps, 1.0}})};
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const DeckPair d = make_decks(load, sources[k]);
    for (const double t_stop : {300 * ps, 300.37 * ps}) {
      for (const bool edge_stop : {false, true}) {
        const std::string what = std::string(to_string(load)) + ", source " +
                                 std::to_string(k) + ", t_stop " + std::to_string(t_stop) +
                                 (edge_stop ? ", edge stop" : "");
        sim::TransientOptions opt;
        opt.dt = 1 * ps;
        opt.t_stop = t_stop;
        opt.solver = solver;
        if (edge_stop) {
          opt.edge_stop.vdd = 1.0;
          opt.edge_stop.watch = d.probes;
        }
        const sim::TransientResult want = sim::simulate(d.stepped, opt, d.probes);
        ASSERT_EQ(0u, want.superposed_samples()) << what;
        const sim::TransientResult got = sim::simulate(d.superposed, opt, d.probes);
        ASSERT_EQ(got.at(d.probes[0]).size() - 1,
                  got.superposed_samples() + got.solved_steps())
            << what;
        // Only a horizon that ends mid-step is solved for, with its lane's
        // full state.
        EXPECT_EQ(!edge_stop && t_stop != 300 * ps ? 1u : got.solved_steps(),
                  got.solved_steps())
            << what;
        EXPECT_LE(got.solved_steps(), 1u) << what;
        expect_close(got, want, d.probes, what);

        // The same deck as one lane of a group, beside a lane with another
        // source, equals its run alone bit for bit.
        const DeckPair other = make_decks(load, wave::ramp(5 * ps, 150 * ps, 0.0, 1.0));
        opt.t_stop = 0.0;
        const std::vector<sim::BlockScenario> lanes{{&other.superposed, 410.5 * ps, nullptr},
                                                    {&d.superposed, t_stop, nullptr}};
        const std::vector<sim::BlockOutcome> block = sim::simulate_block(lanes, opt, d.probes);
        ASSERT_TRUE(block[1].result.has_value()) << what;
        EXPECT_EQ(block[0].result->basis_steps(), block[1].result->basis_steps()) << what;
        for (ckt::NodeId p : d.probes) {
          const wave::Waveform& a = block[1].result->at(p);
          const wave::Waveform& b = got.at(p);
          ASSERT_EQ(a.size(), b.size()) << what;
          for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a.value(i)),
                      std::bit_cast<std::uint64_t>(b.value(i)))
                << what << ", grouped lane, node " << p << ", v[" << i << "]";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadsAndBackends, SuperposedVsStepped,
    ::testing::Combine(::testing::Values(Load::fig7_line, Load::tree, Load::coupled_pair),
                       ::testing::Values(sim::SolverKind::banded, sim::SolverKind::dense,
                                         sim::SolverKind::sparse)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             sim::to_string(std::get<1>(info.param));
    });

// A rising edge from 0 V on the 40-segment line: stepped directly, every row
// the edge has not reached yet stays 0, and the basis must not put the DC
// point's rounding there either.  A basis stepped down from the unit DC
// solution does: 2.2e-13 V on this deck, against 4.4e-15 V for the step up
// from the zero state.
TEST(SuperposedRise, TracksDirectSteppingWithin2e14Volt) {
  const DeckPair d = make_decks(Load::fig7_line, wave::two_ramp(12 * ps, 0.4, 35 * ps, 90 * ps, 1.0));
  sim::TransientOptions opt;
  opt.dt = 1 * ps;
  opt.t_stop = 300 * ps;
  const sim::TransientResult want = sim::simulate(d.stepped, opt, d.probes);
  const sim::TransientResult got = sim::simulate(d.superposed, opt, d.probes);
  ASSERT_EQ(0u, want.superposed_samples());
  ASSERT_EQ(300u, got.superposed_samples());
  expect_close(got, want, d.probes, "fig7_line rising from 0", 2e-14);
}

// The source-held node of a superposed run reads the source itself: every
// sample is Pwl::value_at at the sample's time, bit for bit.
TEST(SuperposedSource, NodeSamplesAreTheSourceBits) {
  const wave::Pwl source({{-20 * ps, 0.0}, {30 * ps, 0.5}, {80 * ps, 1.0}});
  const DeckPair d = make_decks(Load::tree, source);
  sim::TransientOptions opt;
  opt.dt = 1 * ps;
  opt.t_stop = 200.5 * ps;
  const sim::TransientResult r = sim::simulate(d.superposed, opt, d.probes);
  const wave::Waveform& near = r.at(d.probes[0]);
  for (std::size_t i = 0; i < near.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(source.value_at(near.time(i))),
              std::bit_cast<std::uint64_t>(near.value(i)))
        << "sample " << i;
  }
}

}  // namespace
}  // namespace rlceff
