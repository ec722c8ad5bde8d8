// Unit tests for netlist construction, deck builders, and MNA structure.
#include "circuit/netlist.h"

#include <gtest/gtest.h>

#include <array>

#include "circuit/builders.h"
#include "circuit/mna.h"
#include "test_helpers.h"
#include "util/error.h"

namespace rlceff::ckt {
namespace {

TEST(Netlist, NamedNodesAreStable) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, nl.node("a"));
  EXPECT_EQ(ground, nl.node("0"));
  EXPECT_EQ(ground, nl.node("gnd"));
}

TEST(Netlist, DeviceValidation) {
  Netlist nl;
  const NodeId a = nl.node("a");
  EXPECT_THROW(nl.add_resistor(a, ground, 0.0), Error);
  EXPECT_THROW(nl.add_resistor(a, ground, -1.0), Error);
  EXPECT_THROW(nl.add_inductor(a, ground, 0.0), Error);
  EXPECT_THROW(nl.add_capacitor(a, ground, -1e-15), Error);
  EXPECT_THROW(nl.add_resistor(a, 99, 1.0), Error);
  // Zero capacitance is silently dropped, not an error.
  nl.add_capacitor(a, ground, 0.0);
  EXPECT_TRUE(nl.capacitors().empty());
}

TEST(Netlist, TotalCapacitanceSumsGroundedCaps) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_capacitor(a, ground, 1e-12);
  nl.add_capacitor(b, ground, 2e-12);
  EXPECT_DOUBLE_EQ(3e-12, nl.total_capacitance());
}

TEST(Builders, LadderHasExpectedTotals) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const auto ladder = append_rlc_ladder(nl, in, 100.0, 5e-9, 1e-12, 10);

  double r_total = 0.0;
  for (const auto& r : nl.resistors()) r_total += r.resistance;
  double l_total = 0.0;
  for (const auto& l : nl.inductors()) l_total += l.inductance;
  double c_total = 0.0;
  for (const auto& c : nl.capacitors()) c_total += c.capacitance;

  EXPECT_NEAR(100.0, r_total, 1e-9);
  EXPECT_NEAR(5e-9, l_total, 1e-20);
  EXPECT_NEAR(1e-12, c_total, 1e-24);
  EXPECT_EQ(10u, nl.inductors().size());
  EXPECT_NE(ladder.near_end, ladder.far_end);
}

TEST(Builders, LadderEndCapsAreHalfSegments) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const auto ladder = append_rlc_ladder(nl, in, 10.0, 1e-9, 1e-12, 4);
  // First capacitor stamped is the near-end half segment.
  EXPECT_EQ(in, nl.capacitors().front().a);
  EXPECT_NEAR(1e-12 / 8.0, nl.capacitors().front().capacitance, 1e-27);
  // Far-end node carries the final half segment.
  const auto& last = nl.capacitors().back();
  EXPECT_EQ(ladder.far_end, last.a);
  EXPECT_NEAR(1e-12 / 8.0, last.capacitance, 1e-27);
}

TEST(Builders, PiLoad) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId far = append_pi_load(nl, in, 0.3e-12, 50.0, 0.5e-12);
  EXPECT_NE(in, far);
  EXPECT_EQ(1u, nl.resistors().size());
  EXPECT_EQ(2u, nl.capacitors().size());
}

TEST(MnaStructure, CountsUnknowns) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_vsource(a, ground, wave::Pwl({{0.0, 1.0}}));
  nl.add_resistor(a, b, 10.0);
  nl.add_inductor(b, ground, 1e-9);
  const MnaStructure s(nl);
  // The source holds a, and b folds with its R-L pair into one branch from
  // a to ground: nothing is left to solve.
  EXPECT_EQ(0u, s.unknown_count());
  EXPECT_EQ(1u, s.known_count());
  EXPECT_EQ(0u, s.node_index(a));  // the first known row
  EXPECT_EQ(MnaStructure::npos, s.node_index(b));
  EXPECT_EQ(MnaStructure::npos, s.vsource_index(0));
  EXPECT_EQ(MnaStructure::npos, s.inductor_index(0));
  ASSERT_EQ(1u, s.folded_branches().size());
  EXPECT_EQ(a, s.folded_branches()[0].from);
  EXPECT_EQ(ground, s.folded_branches()[0].to);
}

TEST(MnaStructure, IndicesAreDistinctAndInRange) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 1.0}}));
  const LadderNodes ladder = append_rlc_ladder(nl, in, 10.0, 1e-9, 1e-12, 5);
  const MnaStructure s(nl);

  // The five tap voltages are the unknowns; the source node is the one
  // known row, and every mid node and inductor current folds away.
  ASSERT_EQ(5u, s.unknown_count());
  EXPECT_EQ(5u, s.node_index(in));
  std::vector<bool> used(s.unknown_count(), false);
  for (std::size_t k = 1; k < ladder.taps.size(); ++k) {
    const std::size_t idx = s.node_index(ladder.taps[k]);
    ASSERT_LT(idx, s.unknown_count());
    EXPECT_FALSE(used[idx]);
    used[idx] = true;
  }
  for (const Inductor& l : nl.inductors()) EXPECT_EQ(MnaStructure::npos, s.node_index(l.a));
  for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
    EXPECT_EQ(MnaStructure::npos, s.inductor_index(k));
  }
  EXPECT_EQ(MnaStructure::npos, s.vsource_index(0));
  EXPECT_EQ(5u, s.folded_branches().size());
}

TEST(MnaStructure, LadderBandwidthIsSmallAfterRcm) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 1.0}}));
  append_rlc_ladder(nl, in, 100.0, 5e-9, 1e-12, 100);
  const MnaStructure s(nl);
  // A 100-segment RLC ladder reduces to its 100 tap voltages, a chain.
  EXPECT_EQ(100u, s.unknown_count());
  EXPECT_EQ(1u, s.bandwidth());
}

TEST(MnaStructure, ProbedMidNodeStays) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add_vsource(in, ground, wave::Pwl({{0.0, 1.0}}));
  append_rlc_ladder(nl, in, 10.0, 1e-9, 1e-12, 5);
  const std::array<NodeId, 1> keep{nl.inductors()[2].a};
  const MnaStructure s(nl, keep);
  // The kept mid node and its inductor's branch current join the 5 taps.
  EXPECT_EQ(7u, s.unknown_count());
  EXPECT_LT(s.node_index(keep[0]), s.unknown_count());
  EXPECT_LT(s.inductor_index(2), s.unknown_count());
  EXPECT_EQ(4u, s.folded_branches().size());
}

// Two R-L-C sections: a -R- m -L- b with C on a and b.
struct Section {
  NodeId a, m, b;
};
Section add_section(Netlist& nl) {
  Section s{nl.add_node(), nl.add_node(), nl.add_node()};
  nl.add_capacitor(s.a, ground, 1e-15);
  nl.add_resistor(s.a, s.m, 10.0);
  nl.add_inductor(s.m, s.b, 1e-9);
  nl.add_capacitor(s.b, ground, 1e-15);
  return s;
}

TEST(MnaStructure, MutuallyCoupledInductorKeepsItsRow) {
  Netlist nl;
  add_section(nl);
  add_section(nl);
  EXPECT_EQ(4u, MnaStructure(nl).unknown_count());  // a and b of each
  nl.add_mutual_inductor(0, 1, 0.3e-9);
  const MnaStructure s(nl);
  // Each coupled section keeps its mid node and its branch current.
  EXPECT_EQ(8u, s.unknown_count());
  EXPECT_TRUE(s.folded_branches().empty());
}

TEST(MnaStructure, PureInductorSectionKeepsItsRow) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_capacitor(a, ground, 1e-15);
  nl.add_inductor(a, b, 1e-9);
  nl.add_capacitor(b, ground, 1e-15);
  const MnaStructure s(nl);
  EXPECT_EQ(3u, s.unknown_count());
  EXPECT_LT(s.inductor_index(0), s.unknown_count());
}

TEST(MnaStructure, MidNodeWithCapacitorStays) {
  Netlist nl;
  const Section sec = add_section(nl);
  nl.add_capacitor(sec.m, ground, 1e-15);
  const MnaStructure s(nl);
  // a, m, b and the inductor current.
  EXPECT_EQ(4u, s.unknown_count());
  EXPECT_LT(s.node_index(sec.m), s.unknown_count());
}

TEST(MnaStructure, FloatingSourceKeepsItsRow) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_vsource(a, b, wave::Pwl({{0.0, 1.0}}));
  nl.add_resistor(a, ground, 10.0);
  nl.add_resistor(b, ground, 10.0);
  const MnaStructure s(nl);
  // Both node voltages and the source's branch current.
  EXPECT_EQ(3u, s.unknown_count());
  EXPECT_EQ(0u, s.known_count());
  EXPECT_LT(s.vsource_index(0), s.unknown_count());
}

TEST(MnaStructure, GroundHasNoUnknown) {
  Netlist nl;
  nl.add_resistor(nl.node("a"), ground, 1.0);
  const MnaStructure s(nl);
  EXPECT_THROW(s.node_index(ground), Error);
}

}  // namespace
}  // namespace rlceff::ckt
