// Equivalence of the factor-once / cached-static engine paths against the
// naive full-reassembly path.
//
// The cached engine must not change physics: for linear circuits it factors
// the companion matrix once and reuses it; for driver (MOSFET) circuits it
// memcpys a cached static image and restamps only the nonlinear entries.
// Both produce the same stamp sequence as rebuilding everything, so the
// waveforms have to agree to far better than 1e-10.
#include "sim/transient.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "circuit/builders.h"
#include "tech/testbench.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/units.h"

namespace rlceff::sim {
namespace {

using namespace rlceff::units;
using ckt::ground;
using ckt::Netlist;
using ckt::NodeId;

void expect_waveforms_match(const wave::Waveform& a, const wave::Waveform& b,
                            double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_DOUBLE_EQ(a.time(k), b.time(k)) << "sample " << k;
    EXPECT_NEAR(a.value(k), b.value(k), tol) << "t=" << a.time(k);
  }
}

// Ideal ramp through a source resistor into a discretized RLC line: the
// paper's linear replay deck, exercising the factor-once path.
void build_linear_line(Netlist& nl, NodeId& near, NodeId& far) {
  const NodeId src = nl.node("src");
  nl.add_vsource(src, ground, wave::Pwl({{5 * ps, 0.0}, {55 * ps, 1.8}}));
  near = nl.node("near");
  nl.add_resistor(src, near, 25.0);
  const ckt::LadderNodes line =
      ckt::append_rlc_ladder(nl, near, 120.0, 4 * nh, 0.8 * pf, 60);
  far = line.far_end;
  nl.add_capacitor(far, ground, 20 * ff);
}

TEST(EngineEquivalence, LinearRlcLineMatchesNaive) {
  TransientOptions cached;
  cached.t_stop = 0.6 * ns;
  cached.dt = 0.5 * ps;
  cached.assembly = AssemblyMode::cached;
  TransientOptions naive = cached;
  naive.assembly = AssemblyMode::naive;

  Netlist nl_a, nl_b;
  NodeId near_a, far_a, near_b, far_b;
  build_linear_line(nl_a, near_a, far_a);
  build_linear_line(nl_b, near_b, far_b);

  const std::array<NodeId, 2> probes_a{near_a, far_a};
  const std::array<NodeId, 2> probes_b{near_b, far_b};
  const TransientResult fast = simulate(nl_a, cached, probes_a);
  const TransientResult ref = simulate(nl_b, naive, probes_b);

  expect_waveforms_match(fast.at(near_a), ref.at(near_b), 1e-10);
  expect_waveforms_match(fast.at(far_a), ref.at(far_b), 1e-10);
}

TEST(EngineEquivalence, LinearLineBackwardEulerMatchesNaive) {
  TransientOptions cached;
  cached.t_stop = 0.3 * ns;
  cached.dt = 1 * ps;
  cached.integrator = Integrator::backward_euler;
  cached.assembly = AssemblyMode::cached;
  TransientOptions naive = cached;
  naive.assembly = AssemblyMode::naive;

  Netlist nl_a, nl_b;
  NodeId near_a, far_a, near_b, far_b;
  build_linear_line(nl_a, near_a, far_a);
  build_linear_line(nl_b, near_b, far_b);

  const std::array<NodeId, 1> probes_a{far_a};
  const std::array<NodeId, 1> probes_b{far_b};
  const TransientResult fast = simulate(nl_a, cached, probes_a);
  const TransientResult ref = simulate(nl_b, naive, probes_b);
  expect_waveforms_match(fast.at(far_a), ref.at(far_b), 1e-10);
}

// A shortened final step forces the engine to refactor for the new h; the
// cached path must handle the step-size change transparently.
TEST(EngineEquivalence, PartialFinalStepMatchesNaive) {
  TransientOptions cached;
  cached.t_stop = 100.3 * ps;  // not a multiple of dt
  cached.dt = 1 * ps;
  cached.assembly = AssemblyMode::cached;
  TransientOptions naive = cached;
  naive.assembly = AssemblyMode::naive;

  Netlist nl_a, nl_b;
  NodeId near_a, far_a, near_b, far_b;
  build_linear_line(nl_a, near_a, far_a);
  build_linear_line(nl_b, near_b, far_b);

  const std::array<NodeId, 1> probes_a{far_a};
  const std::array<NodeId, 1> probes_b{far_b};
  const TransientResult fast = simulate(nl_a, cached, probes_a);
  const TransientResult ref = simulate(nl_b, naive, probes_b);
  expect_waveforms_match(fast.at(far_a), ref.at(far_b), 1e-10);
}

// Driver + line: the cached-static nonlinear path (memcpy'd linear stamps,
// restamped MOSFETs) against full reassembly every Newton iteration.
TEST(EngineEquivalence, DriverLineMatchesNaive) {
  const tech::Technology technology = tech::Technology::cmos180();
  const tech::WireParasitics wire{150.0, 5 * nh, 0.9 * pf};

  tech::DeckOptions deck;
  deck.segments = 40;
  deck.dt = 0.5 * ps;
  deck.t_stop = 0.5 * ns;
  deck.sim.assembly = AssemblyMode::cached;
  const net::Net line = tech::line_net(wire, 20 * ff);
  const tech::NetSimResult fast =
      tech::simulate_driver_net(technology, tech::Inverter{50.0}, 100 * ps, line, deck);

  deck.sim.assembly = AssemblyMode::naive;
  const tech::NetSimResult ref =
      tech::simulate_driver_net(technology, tech::Inverter{50.0}, 100 * ps, line, deck);

  expect_waveforms_match(fast.near_end, ref.near_end, 1e-10);
  expect_waveforms_match(fast.leaves.front(), ref.leaves.front(), 1e-10);
}

TEST(EngineEquivalence, DcOperatingPointMatchesNaive) {
  const tech::Technology technology = tech::Technology::cmos180();
  ckt::Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, technology.vdd}}));
  tech::add_inverter(nl, technology, tech::Inverter{25.0}, in, out);
  nl.add_capacitor(out, ground, 50 * ff);

  TransientOptions cached;
  cached.assembly = AssemblyMode::cached;
  TransientOptions naive = cached;
  naive.assembly = AssemblyMode::naive;

  const OperatingPoint op_fast = dc_operating_point(nl, cached);
  const OperatingPoint op_ref = dc_operating_point(nl, naive);
  ASSERT_EQ(op_fast.node_voltage.size(), op_ref.node_voltage.size());
  for (std::size_t k = 0; k < op_fast.node_voltage.size(); ++k) {
    EXPECT_NEAR(op_fast.node_voltage[k], op_ref.node_voltage[k], 1e-12);
  }
}

}  // namespace
}  // namespace rlceff::sim
