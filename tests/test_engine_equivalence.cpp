// Equivalence of the factor-once / cached-static engine paths against the
// naive full-reassembly path.
//
// The cached engine must not change physics: for linear circuits it factors
// the companion matrix once and reuses it; for driver (MOSFET) circuits it
// memcpys a cached static image, restamps only the nonlinear entries, and
// (banded backend) refactors only the columns from the first MOSFET
// terminal on, keeping the factored columns before it.  Both produce the
// same stamp sequence and the same factors as rebuilding and refactoring
// everything, so every waveform sample must agree bitwise.
#include "sim/transient.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/builders.h"
#include "net/coupled.h"
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_waveforms_match(const wave::Waveform& a, const wave::Waveform& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(bits(a.time(k)), bits(b.time(k))) << "sample " << k;
    ASSERT_EQ(bits(a.value(k)), bits(b.value(k)))
        << "t=" << a.time(k) << ": " << a.value(k) << " vs " << b.value(k);
  }
}

void expect_nets_match(const tech::NetSimResult& a, const tech::NetSimResult& b) {
  expect_waveforms_match(a.near_end, b.near_end);
  ASSERT_EQ(a.leaves.size(), b.leaves.size());
  for (std::size_t k = 0; k < a.leaves.size(); ++k) {
    expect_waveforms_match(a.leaves[k], b.leaves[k]);
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

  expect_waveforms_match(fast.at(near_a), ref.at(near_b));
  expect_waveforms_match(fast.at(far_a), ref.at(far_b));
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
  expect_waveforms_match(fast.at(far_a), ref.at(far_b));
}

// Driver + line: the cached-static nonlinear path (memcpy'd linear stamps,
// restamped MOSFETs, refactoring only the MOSFET columns) against full
// reassembly every Newton iteration.
tech::NetSimResult driver_line(AssemblyMode assembly, double t_stop) {
  const tech::Technology technology = tech::Technology::cmos180();
  const tech::WireParasitics wire{150.0, 5 * nh, 0.9 * pf};

  tech::DeckOptions deck;
  deck.segments = 40;
  deck.dt = 0.5 * ps;
  deck.t_stop = t_stop;
  deck.sim.assembly = assembly;
  return tech::simulate_driver_net(technology, tech::Inverter{50.0}, 100 * ps,
                                   tech::line_net(wire, 20 * ff), deck);
}

TEST(EngineEquivalence, DriverLineMatchesNaive) {
  expect_nets_match(driver_line(AssemblyMode::cached, 0.5 * ns),
                    driver_line(AssemblyMode::naive, 0.5 * ns));
}

// The shortened final step changes (h, gmin) mid-run: the new static image
// must not reuse the columns factored for the regular step.
TEST(EngineEquivalence, DriverLinePartialFinalStepMatchesNaive) {
  const double t_stop = 200.3 * ps;  // not a multiple of dt
  const tech::NetSimResult fast = driver_line(AssemblyMode::cached, t_stop);
  const std::size_t last = fast.near_end.size() - 1;
  ASSERT_LT(fast.near_end.time(last) - fast.near_end.time(last - 1), 0.4 * ps);
  expect_nets_match(fast, driver_line(AssemblyMode::naive, t_stop));
}

// A coupled group with one inverter per net.  RCM puts its MOSFET unknowns
// last (the last 32 of 164 columns at 12 segments), so each Newton
// iteration refactors a short tail of columns and keeps a long factored
// prefix.  A quiet victim sits between a rising and a falling aggressor,
// and a fourth net rises too.
TEST(EngineEquivalence, CoupledDriverGroupMatchesNaive) {
  const tech::Technology technology = tech::Technology::cmos180();
  net::CoupledGroup group;
  for (const char* label : {"aggr_rise", "victim", "aggr_fall", "victim2"}) {
    group.add_net(net::Net::uniform_line(80.0, 1.5 * nh, 250 * ff, 15 * ff), label);
  }
  group.couple_capacitance({0, 0}, {1, 0}, 60 * ff);
  group.couple_capacitance({1, 0}, {2, 0}, 60 * ff);
  group.couple_capacitance({2, 0}, {3, 0}, 40 * ff);
  group.couple_inductance({0, 0}, {1, 0}, 0.3);
  const std::array<tech::NetDrive, 4> drives{
      tech::NetDrive{tech::Inverter{100.0}, 60 * ps, tech::DriveEdge::rise},
      tech::NetDrive{tech::Inverter{25.0}, 60 * ps, tech::DriveEdge::hold_low},
      tech::NetDrive{tech::Inverter{75.0}, 80 * ps, tech::DriveEdge::fall},
      tech::NetDrive{tech::Inverter{50.0}, 100 * ps, tech::DriveEdge::rise}};

  tech::DeckOptions deck;
  deck.segments = 12;
  deck.dt = 1 * ps;
  deck.t_stop = 0.4 * ns;
  deck.sim.assembly = AssemblyMode::cached;
  const tech::CoupledSimResult fast =
      tech::simulate_coupled_group(technology, drives, group, deck);
  deck.sim.assembly = AssemblyMode::naive;
  const tech::CoupledSimResult ref =
      tech::simulate_coupled_group(technology, drives, group, deck);

  ASSERT_EQ(drives.size(), fast.nets.size());
  ASSERT_EQ(fast.nets.size(), ref.nets.size());
  for (std::size_t k = 0; k < fast.nets.size(); ++k) {
    SCOPED_TRACE(group.label_at(k));
    expect_nets_match(fast.nets[k], ref.nets[k]);
  }
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
    EXPECT_EQ(bits(op_fast.node_voltage[k]), bits(op_ref.node_voltage[k]));
  }
}

}  // namespace
}  // namespace rlceff::sim
