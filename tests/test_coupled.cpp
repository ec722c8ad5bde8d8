// Tests for the coupled-net IR and its path through the stack: construction
// validation naming offending pairs, the single-net degenerate case staying
// bitwise-identical to the net::Net flow (deck, simulation, Ceff model),
// mutual-inductance MNA stamps (cached == naive), Miller decoupling
// bookkeeping, crosstalk physics sanity, and the banded->dense LU fallback.
#include "net/coupled.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "charlib/library.h"
#include "circuit/builders.h"
#include "circuit/mna.h"
#include "core/coupled_experiment.h"
#include "core/experiment.h"
#include "moments/admittance.h"
#include "sim/transient.h"
#include "tech/testbench.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::net {
namespace {

using namespace rlceff::units;

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

Net short_line() { return Net::uniform_line(60.0, 1.2 * nh, 300 * ff, 20 * ff); }

CoupledGroup two_lines(double cc, double k = 0.0) {
  CoupledGroup group;
  group.add_net(short_line(), "victim");
  group.add_net(short_line(), "aggr");
  group.couple_capacitance({0, 0}, {1, 0}, cc);
  if (k > 0.0) group.couple_inductance({0, 0}, {1, 0}, k);
  return group;
}

// Element-by-element deck equality (exact: same nodes, same values, same
// order) — the representation the simulator consumes.
void expect_same_deck(const ckt::Netlist& a, const ckt::Netlist& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.resistors().size(), b.resistors().size());
  for (std::size_t i = 0; i < a.resistors().size(); ++i) {
    EXPECT_EQ(a.resistors()[i].a, b.resistors()[i].a);
    EXPECT_EQ(a.resistors()[i].b, b.resistors()[i].b);
    EXPECT_EQ(a.resistors()[i].resistance, b.resistors()[i].resistance);
  }
  ASSERT_EQ(a.capacitors().size(), b.capacitors().size());
  for (std::size_t i = 0; i < a.capacitors().size(); ++i) {
    EXPECT_EQ(a.capacitors()[i].a, b.capacitors()[i].a);
    EXPECT_EQ(a.capacitors()[i].b, b.capacitors()[i].b);
    EXPECT_EQ(a.capacitors()[i].capacitance, b.capacitors()[i].capacitance);
  }
  ASSERT_EQ(a.inductors().size(), b.inductors().size());
  for (std::size_t i = 0; i < a.inductors().size(); ++i) {
    EXPECT_EQ(a.inductors()[i].a, b.inductors()[i].a);
    EXPECT_EQ(a.inductors()[i].b, b.inductors()[i].b);
    EXPECT_EQ(a.inductors()[i].inductance, b.inductors()[i].inductance);
  }
  ASSERT_EQ(a.mutual_inductors().size(), b.mutual_inductors().size());
  for (std::size_t i = 0; i < a.mutual_inductors().size(); ++i) {
    EXPECT_EQ(a.mutual_inductors()[i].la, b.mutual_inductors()[i].la);
    EXPECT_EQ(a.mutual_inductors()[i].lb, b.mutual_inductors()[i].lb);
    EXPECT_EQ(a.mutual_inductors()[i].mutual, b.mutual_inductors()[i].mutual);
  }
  EXPECT_EQ(a.vsources().size(), b.vsources().size());
  EXPECT_EQ(a.mosfets().size(), b.mosfets().size());
}

void expect_same_waveform(const wave::Waveform& a, const wave::Waveform& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a.time(k), b.time(k)) << "sample " << k;
    ASSERT_EQ(a.value(k), b.value(k)) << "t=" << a.time(k);
  }
}

tech::DeckOptions coarse_deck() {
  tech::DeckOptions deck;
  deck.segments = 10;
  deck.dt = 2 * ps;
  deck.t_stop = 1.2e-9;
  return deck;
}

charlib::CharacterizationGrid small_grid() {
  charlib::CharacterizationGrid grid;
  grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf, 4 * pf};
  return grid;
}

// One shared small-grid driver characterization for the model-level tests.
const charlib::CharacterizedDriver& shared_driver() {
  static charlib::CellLibrary library;
  return library.ensure_driver(tech::Technology::cmos180(), 75.0, small_grid());
}

// ---- construction-time validation ---------------------------------------

TEST(CoupledGroupValidation, RejectsDuplicateLabelsAndEmptyNets) {
  CoupledGroup group;
  group.add_net(short_line(), "a");
  EXPECT_THROW(group.add_net(short_line(), "a"), Error);
  EXPECT_THROW(group.add_net(Net{}, "b"), Error);
  EXPECT_EQ(1u, group.size());
}

// Found by the property generator: an explicit "net1" followed by an
// unlabeled net used to abort with a duplicate-label error the caller never
// wrote, because the auto-label counter blindly used the insertion index.
TEST(CoupledGroupValidation, AutoLabelsSkipTakenNames) {
  CoupledGroup group;
  group.add_net(short_line(), "net1");
  const std::size_t a = group.add_net(short_line());  // would auto-label "net1"
  const std::size_t b = group.add_net(short_line());
  EXPECT_EQ("net1", group.label_at(0));
  EXPECT_EQ("net2", group.label_at(a));
  EXPECT_EQ("net3", group.label_at(b));
  EXPECT_EQ(0u, group.index_of("net1"));
  EXPECT_EQ(a, group.index_of("net2"));
}

TEST(CoupledGroupValidation, ErrorsNameTheOffendingPair) {
  CoupledGroup group;
  group.add_net(short_line(), "left");
  group.add_net(short_line(), "right");

  std::string msg = error_message(
      [&] { group.couple_capacitance({0, 0}, {1, 3}, 50 * ff); });
  EXPECT_NE(std::string::npos, msg.find("'left' section 0")) << msg;
  EXPECT_NE(std::string::npos, msg.find("'right' section 3")) << msg;
  EXPECT_NE(std::string::npos, msg.find("out of range")) << msg;

  msg = error_message([&] { group.couple_capacitance({0, 0}, {0, 0}, 50 * ff); });
  EXPECT_NE(std::string::npos, msg.find("same net")) << msg;

  msg = error_message([&] { group.couple_capacitance({0, 0}, {2, 0}, 50 * ff); });
  EXPECT_NE(std::string::npos, msg.find("net index out of range")) << msg;

  msg = error_message([&] { group.couple_capacitance({0, 0}, {1, 0}, -50 * ff); });
  EXPECT_NE(std::string::npos, msg.find("non-physical capacitance")) << msg;

  msg = error_message([&] { group.couple_inductance({0, 0}, {1, 0}, 1.5); });
  EXPECT_NE(std::string::npos, msg.find("outside (0, 1)")) << msg;

  // Coupling must land on distributed spans; lumped tree sections reject.
  Branch lumped;
  lumped.sections.push_back({40.0, 0.0, 100 * ff, SectionKind::lumped});
  CoupledGroup tree_group;
  tree_group.add_net(short_line(), "line");
  tree_group.add_net(Net(lumped), "tree");
  msg = error_message(
      [&] { tree_group.couple_capacitance({0, 0}, {1, 0}, 50 * ff); });
  EXPECT_NE(std::string::npos, msg.find("lumped section")) << msg;

  // A coupling to a section with no inductance cannot carry a K element.
  CoupledGroup rc_group;
  rc_group.add_net(short_line(), "rlc");
  rc_group.add_net(Net::uniform_line(60.0, 0.0, 300 * ff, 20 * ff), "rc");
  msg = error_message([&] { rc_group.couple_inductance({0, 0}, {1, 0}, 0.3); });
  EXPECT_NE(std::string::npos, msg.find("carries no inductance")) << msg;

  // All rejected couplings must leave the group untouched.
  EXPECT_TRUE(group.coupling_caps().empty());
  EXPECT_TRUE(group.mutual_couplings().empty());
}

TEST(CoupledGroupValidation, AccumulatedMutualCouplingStaysPassive) {
  // Couplings on the same section pair sum; the aggregate must stay under
  // k = 1 even when each contribution alone is fine.
  CoupledGroup group = two_lines(50 * ff, 0.6);
  EXPECT_THROW(group.couple_inductance({0, 0}, {1, 0}, 0.5), Error);  // 1.1 total
  EXPECT_THROW(group.couple_inductance({1, 0}, {0, 0}, 0.5), Error);  // flipped too
  group.couple_inductance({0, 0}, {1, 0}, 0.3);  // 0.9 total: still passive
  ASSERT_EQ(2u, group.mutual_couplings().size());

  // The compiled deck carries one K element per aligned segment and per
  // coupling; with identical lines M_seg = k * L_seg, so the values must sum
  // to (0.6 + 0.3) * L_total across the ladder.
  ckt::Netlist nl;
  const std::array<ckt::NodeId, 2> froms{nl.node("a"), nl.node("b")};
  ckt::append_coupled_group(nl, froms, group, 4);
  ASSERT_EQ(2u * 4u, nl.mutual_inductors().size());
  double m_total = 0.0;
  for (const ckt::MutualInductor& m : nl.mutual_inductors()) m_total += m.mutual;
  EXPECT_NEAR(0.9 * 1.2 * nh, m_total, 1e-15 * nh);

  // Same aggregate rule at the netlist layer.
  ckt::Netlist pair;
  const ckt::NodeId n = pair.add_node();
  pair.add_inductor(n, ckt::ground, 1 * nh);
  pair.add_inductor(pair.add_node(), ckt::ground, 1 * nh);
  pair.add_mutual_inductor(0, 1, 0.6 * nh);
  EXPECT_THROW(pair.add_mutual_inductor(1, 0, 0.5 * nh), Error);
  pair.add_mutual_inductor(1, 0, 0.3 * nh);
  EXPECT_EQ(2u, pair.mutual_inductors().size());
}

TEST(CoupledGroupValidation, SectionBookkeeping) {
  CoupledGroup group = two_lines(50 * ff, 0.4);
  EXPECT_EQ(2u, group.size());
  EXPECT_EQ(1u, group.section_count(0));
  EXPECT_EQ(0u, group.index_of("victim"));
  EXPECT_EQ(1u, group.index_of("aggr"));
  EXPECT_THROW(group.index_of("nobody"), Error);
  EXPECT_DOUBLE_EQ(50 * ff, group.coupling_capacitance_at(0));
  EXPECT_DOUBLE_EQ(50 * ff, group.coupling_capacitance_at(1));
}

// ---- single-net degenerate case ------------------------------------------

TEST(CoupledGroupEquivalence, SingleNetGroupCompilesTheExactAppendNetDeck) {
  const Net net = tech::line_net(*tech::find_paper_wire_case(5.0, 1.6), 20 * ff);

  ckt::Netlist single;
  const ckt::NodeId from_single = single.node("out");
  ckt::NetDeckNodes nodes_single = ckt::append_net(single, from_single, net, 40);

  ckt::Netlist grouped;
  const ckt::NodeId from_grouped = grouped.node("out");
  const std::array<ckt::NodeId, 1> froms{from_grouped};
  ckt::CoupledDeckNodes nodes_grouped =
      ckt::append_coupled_group(grouped, froms, CoupledGroup::single(net), 40);

  expect_same_deck(single, grouped);
  ASSERT_EQ(1u, nodes_grouped.nets.size());
  EXPECT_EQ(nodes_single.leaves, nodes_grouped.nets[0].leaves);
  ASSERT_EQ(nodes_single.sections.size(), nodes_grouped.nets[0].sections.size());
  EXPECT_EQ(nodes_single.sections[0].taps, nodes_grouped.nets[0].sections[0].taps);
}

TEST(CoupledGroupEquivalence, SingleNetGroupSimulatesBitwiseIdentical) {
  const tech::Technology technology = tech::Technology::cmos180();
  const Net net = short_line();
  const tech::DeckOptions deck = coarse_deck();
  const tech::Inverter cell{75.0};

  const tech::NetSimResult single =
      tech::simulate_driver_net(technology, cell, 100 * ps, net, deck);

  const std::array<tech::NetDrive, 1> drives{
      tech::NetDrive{cell, 100 * ps, tech::DriveEdge::rise}};
  const tech::CoupledSimResult grouped = tech::simulate_coupled_group(
      technology, drives, CoupledGroup::single(net), deck);

  ASSERT_EQ(1u, grouped.nets.size());
  EXPECT_EQ(single.input_time_50, grouped.nets[0].input_time_50);
  expect_same_waveform(single.near_end, grouped.nets[0].near_end);
  ASSERT_EQ(single.leaves.size(), grouped.nets[0].leaves.size());
  expect_same_waveform(single.leaves[0], grouped.nets[0].leaves[0]);
}

TEST(CoupledGroupEquivalence, SingleNetGroupModelsBitwiseIdentical) {
  const Net net = short_line();
  const Net decoupled = CoupledGroup::single(net).decoupled_net(0);

  // The decoupled single net must be the same IR...
  const util::Series ya = moments::net_admittance(net);
  const util::Series yb = moments::net_admittance(decoupled);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t k = 0; k < ya.size(); ++k) EXPECT_EQ(ya[k], yb[k]);

  // ...and the paper flow on it must produce the identical model.
  const core::DriverOutputModel a =
      core::model_driver_output(shared_driver(), 100 * ps, net);
  const core::DriverOutputModel b =
      core::model_driver_output(shared_driver(), 100 * ps, decoupled);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.t50, b.t50);
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.ceff1.ceff, b.ceff1.ceff);
  EXPECT_EQ(a.ceff2.ceff, b.ceff2.ceff);
  ASSERT_EQ(a.waveform.points().size(), b.waveform.points().size());
  for (std::size_t k = 0; k < a.waveform.points().size(); ++k) {
    EXPECT_EQ(a.waveform.points()[k].first, b.waveform.points()[k].first);
    EXPECT_EQ(a.waveform.points()[k].second, b.waveform.points()[k].second);
  }
}

// ---- Miller decoupling ----------------------------------------------------

TEST(CoupledGroup, MillerFactorsScaleGroundedCoupling) {
  const CoupledGroup group = two_lines(50 * ff);
  const double base = group.net_at(0).total_capacitance();

  const std::array<double, 2> same{1.0, 0.0};
  const std::array<double, 2> quiet{1.0, 1.0};
  const std::array<double, 2> opposite{1.0, 2.0};
  EXPECT_DOUBLE_EQ(base, group.decoupled_net(0, same).total_capacitance());
  EXPECT_DOUBLE_EQ(base + 50 * ff, group.decoupled_net(0, quiet).total_capacitance());
  EXPECT_DOUBLE_EQ(base + 100 * ff,
                   group.decoupled_net(0, opposite).total_capacitance());
  // The default overload is the quiet (1x) environment.
  EXPECT_DOUBLE_EQ(base + 50 * ff, group.decoupled_net(1).total_capacitance());

  EXPECT_EQ(0.0, core::miller_factor(core::AggressorSwitching::same_direction));
  EXPECT_EQ(1.0, core::miller_factor(core::AggressorSwitching::quiet));
  EXPECT_EQ(2.0, core::miller_factor(core::AggressorSwitching::opposite));
}

// ---- mutual inductance through the simulator ------------------------------

TEST(MutualInductance, NetlistValidatesKElements) {
  ckt::Netlist nl;
  const ckt::NodeId a = nl.add_node();
  const ckt::NodeId b = nl.add_node();
  nl.add_inductor(a, ckt::ground, 1 * nh);
  nl.add_inductor(b, ckt::ground, 4 * nh);
  EXPECT_THROW(nl.add_mutual_inductor(0, 0, 0.5 * nh), Error);
  EXPECT_THROW(nl.add_mutual_inductor(0, 2, 0.5 * nh), Error);
  EXPECT_THROW(nl.add_mutual_inductor(0, 1, 2.1 * nh), Error);  // |M| >= sqrt(LaLb)
  EXPECT_THROW(nl.add_mutual_inductor(0, 1, 0.0), Error);
  nl.add_mutual_inductor(0, 1, 1.9 * nh);
  ASSERT_EQ(1u, nl.mutual_inductors().size());
  EXPECT_EQ(0u, nl.mutual_inductors()[0].la);
  EXPECT_EQ(1u, nl.mutual_inductors()[0].lb);
}

// A linear source-driven coupled deck: cached and naive assembly must stamp
// the same system, mutual inductors included.
TEST(MutualInductance, CachedAndNaiveAssemblyAgreeBitwise) {
  const CoupledGroup group = two_lines(60 * ff, 0.5);
  ckt::Netlist nl;
  const ckt::NodeId a = nl.node("a");
  const ckt::NodeId b = nl.node("b");
  nl.add_vsource(a, ckt::ground, wave::Pwl({{10 * ps, 0.0}, {110 * ps, 1.8}}));
  nl.add_vsource(b, ckt::ground, wave::Pwl({{0.0, 0.0}}));
  const std::array<ckt::NodeId, 2> froms{a, b};
  const ckt::CoupledDeckNodes deck = ckt::append_coupled_group(nl, froms, group, 8);
  ASSERT_FALSE(nl.mutual_inductors().empty());

  sim::TransientOptions options;
  options.t_stop = 0.6e-9;
  options.dt = 2 * ps;
  const std::array<ckt::NodeId, 2> probes{deck.nets[0].leaves[0],
                                          deck.nets[1].leaves[0]};

  options.assembly = sim::AssemblyMode::cached;
  const sim::TransientResult cached = sim::simulate(nl, options, probes);
  options.assembly = sim::AssemblyMode::naive;
  const sim::TransientResult naive = sim::simulate(nl, options, probes);

  for (const ckt::NodeId p : probes) {
    expect_same_waveform(cached.at(p), naive.at(p));
  }
}

TEST(MutualInductance, CouplingChangesTheWaveformButStaysPassive) {
  auto far_wave = [](double k) {
    const CoupledGroup group = two_lines(30 * ff, k);
    ckt::Netlist nl;
    const ckt::NodeId a = nl.node("a");
    const ckt::NodeId b = nl.node("b");
    nl.add_vsource(a, ckt::ground, wave::Pwl({{10 * ps, 0.0}, {60 * ps, 1.8}}));
    nl.add_vsource(b, ckt::ground, wave::Pwl({{0.0, 0.0}}));
    const std::array<ckt::NodeId, 2> froms{a, b};
    const ckt::CoupledDeckNodes deck = ckt::append_coupled_group(nl, froms, group, 8);
    sim::TransientOptions options;
    options.t_stop = 0.8e-9;
    options.dt = 1 * ps;
    const std::array<ckt::NodeId, 1> probes{deck.nets[1].leaves[0]};
    return sim::simulate(nl, options, probes).at(probes[0]);
  };

  const wave::Waveform without = far_wave(0.0);
  const wave::Waveform with = far_wave(0.6);
  ASSERT_EQ(without.size(), with.size());
  double max_diff = 0.0;
  for (std::size_t k = 0; k < with.size(); ++k) {
    max_diff = std::max(max_diff, std::abs(with.value(k) - without.value(k)));
    EXPECT_LT(std::abs(with.value(k)), 2.0 * 1.8) << "t=" << with.time(k);
  }
  EXPECT_GT(max_diff, 1e-3);  // the K elements visibly change the victim
}

// ---- banded -> dense LU fallback (coverage for the wider coupling bandwidth)

TEST(DenseFallback, NarrowDeckMatchesBandedWithin1e10) {
  const tech::Technology technology = tech::Technology::cmos180();
  const tech::DeckOptions deck = coarse_deck();
  const tech::Inverter cell{75.0};
  const Net net = short_line();

  // The single-line deck is narrow: the banded solver must be the default.
  {
    ckt::Netlist nl;
    const ckt::NodeId out = nl.node("out");
    nl.add_vsource(out, ckt::ground, wave::Pwl({{0.0, 0.0}, {100 * ps, 1.8}}));
    ckt::append_net(nl, out, net, deck.segments);
    EXPECT_EQ(sim::selected_solver(nl), sim::SolverKind::banded);
  }

  tech::DeckOptions dense = deck;
  dense.sim.solver = sim::SolverKind::dense;
  const tech::NetSimResult banded =
      tech::simulate_driver_net(technology, cell, 100 * ps, net, deck);
  const tech::NetSimResult forced =
      tech::simulate_driver_net(technology, cell, 100 * ps, net, dense);

  ASSERT_EQ(banded.near_end.size(), forced.near_end.size());
  for (std::size_t k = 0; k < banded.near_end.size(); ++k) {
    ASSERT_EQ(banded.near_end.time(k), forced.near_end.time(k));
    EXPECT_NEAR(banded.near_end.value(k), forced.near_end.value(k), 1e-10);
    EXPECT_NEAR(banded.leaves[0].value(k), forced.leaves[0].value(k), 1e-10);
  }
}

TEST(DenseFallback, WideCoupledDeckForcesDenseFactorization) {
  // An all-to-all coupled bus: every pair of nets shares a coupling cap, so
  // the MNA bandwidth grows with the bus width and outruns the banded
  // threshold even after RCM.
  CoupledGroup bus;
  const std::size_t n_nets = 12;
  for (std::size_t k = 0; k < n_nets; ++k) {
    bus.add_net(Net::uniform_line(40.0, 0.8 * nh, 150 * ff, 10 * ff),
                "bit" + std::to_string(k));
  }
  for (std::size_t i = 0; i < n_nets; ++i) {
    for (std::size_t j = i + 1; j < n_nets; ++j) {
      bus.couple_capacitance({i, 0}, {j, 0}, 8 * ff);
    }
  }

  ckt::Netlist nl;
  std::vector<ckt::NodeId> froms;
  for (std::size_t k = 0; k < n_nets; ++k) {
    const ckt::NodeId from = nl.node("out" + std::to_string(k));
    nl.add_vsource(from, ckt::ground,
                   k == 0 ? wave::Pwl({{10 * ps, 0.0}, {110 * ps, 1.8}})
                          : wave::Pwl({{0.0, 0.0}}));
    froms.push_back(from);
  }
  const ckt::CoupledDeckNodes deck = ckt::append_coupled_group(nl, froms, bus, 2);
  EXPECT_NE(sim::selected_solver(nl), sim::SolverKind::banded);

  // The dense path must still agree with itself across assembly modes (both
  // factor the same stamped system).
  sim::TransientOptions options;
  options.t_stop = 0.4e-9;
  options.dt = 2 * ps;
  const std::array<ckt::NodeId, 2> probes{deck.nets[0].leaves[0],
                                          deck.nets[6].leaves[0]};
  options.assembly = sim::AssemblyMode::cached;
  const sim::TransientResult cached = sim::simulate(nl, options, probes);
  options.assembly = sim::AssemblyMode::naive;
  const sim::TransientResult naive = sim::simulate(nl, options, probes);
  for (const ckt::NodeId p : probes) expect_same_waveform(cached.at(p), naive.at(p));

  // And the coupled deck must show real crosstalk on the quiet neighbor.
  double peak = 0.0;
  const wave::Waveform& victim = cached.at(probes[1]);
  for (std::size_t k = 0; k < victim.size(); ++k) {
    peak = std::max(peak, std::abs(victim.value(k)));
  }
  EXPECT_GT(peak, 1e-3);
}

// ---- the coupled experiment harness ---------------------------------------

class CoupledExperimentFixture : public ::testing::Test {
protected:
  static core::CoupledExperimentOptions fast_options() {
    core::CoupledExperimentOptions opt;
    opt.deck.segments = 10;
    opt.deck.dt = 2 * ps;
    opt.grid = small_grid();
    return opt;
  }

  static charlib::CellLibrary& library() {
    static charlib::CellLibrary lib;
    return lib;
  }
};

TEST_F(CoupledExperimentFixture, SingleNetGroupMatchesRunExperimentBitwise) {
  const tech::Technology technology = tech::Technology::cmos180();

  core::ExperimentCase plain;
  plain.label = "plain";
  plain.driver_size = 75.0;
  plain.input_slew = 100 * ps;
  plain.net = short_line();

  core::ExperimentOptions plain_opt;
  plain_opt.deck = fast_options().deck;
  plain_opt.grid = small_grid();
  plain_opt.include_one_ramp = false;
  plain_opt.include_far_end = true;
  const core::ExperimentResult expected =
      core::run_experiment(technology, library(), plain, plain_opt);

  core::CoupledExperimentCase coupled;
  coupled.label = "single";
  coupled.group = CoupledGroup::single(short_line());
  coupled.victim = 0;
  coupled.driver_size = 75.0;
  coupled.input_slew = 100 * ps;
  const core::CoupledExperimentResult actual =
      core::run_coupled_experiment(technology, library(), coupled, fast_options());

  EXPECT_EQ(expected.ref_near.delay, actual.ref_near.delay);
  EXPECT_EQ(expected.ref_near.slew, actual.ref_near.slew);
  EXPECT_EQ(expected.ref_far.delay, actual.ref_far.delay);
  EXPECT_EQ(expected.model_near.delay, actual.model_near.delay);
  EXPECT_EQ(expected.model_far.delay, actual.model_far.delay);
  EXPECT_EQ(expected.model.t50, actual.model.t50);
  EXPECT_EQ(expected.model.ceff1.ceff, actual.model.ceff1.ceff);
  // No neighbors: pushout and noise are exactly zero.
  EXPECT_EQ(0.0, actual.delay_pushout);
  EXPECT_EQ(0.0, actual.delay_pushout_model);
  EXPECT_EQ(0.0, actual.peak_noise);
}

TEST_F(CoupledExperimentFixture, OppositeAggressorPushesOutDelayAndInjectsNoise) {
  const tech::Technology technology = tech::Technology::cmos180();

  core::CoupledExperimentCase scenario;
  scenario.label = "pair";
  scenario.group = two_lines(120 * ff);
  scenario.victim = 0;
  scenario.driver_size = 75.0;
  scenario.input_slew = 100 * ps;
  scenario.aggressors.assign(2, {75.0, 100 * ps, core::AggressorSwitching::opposite});

  const core::CoupledExperimentResult r =
      core::run_coupled_experiment(technology, library(), scenario, fast_options());

  // An opposite-switching neighbor slows the victim and bumps it when quiet.
  EXPECT_GT(r.delay_pushout, 0.0);
  EXPECT_GT(r.delay_pushout_model, 0.0);
  EXPECT_GT(r.peak_noise, 1e-3);
  EXPECT_LT(r.peak_noise, technology.vdd);
  // The Miller model must track the coupled simulation at the far end.
  EXPECT_LT(std::abs(core::pct_error(r.model_far.delay, r.ref_far.delay)), 15.0);

  // A same-direction neighbor speeds the victim up instead.
  scenario.aggressors.assign(
      2, {75.0, 100 * ps, core::AggressorSwitching::same_direction});
  const core::CoupledExperimentResult helped =
      core::run_coupled_experiment(technology, library(), scenario, fast_options());
  EXPECT_LT(helped.ref_far.delay, r.ref_far.delay);
  EXPECT_LT(helped.delay_pushout, 0.0);
}

TEST_F(CoupledExperimentFixture, IncomingEdgeStopIsOverridden) {
  // The experiments set the measured-edge stop from keep_waveforms alone: a
  // caller's deck that turns it on changes nothing.  Kept waveforms run the
  // full horizon, and so does the noise deck, whose rising aggressors would
  // otherwise give it edges to stop at.
  const tech::Technology technology = tech::Technology::cmos180();
  core::CoupledExperimentCase scenario;
  scenario.label = "pair";
  scenario.group = two_lines(120 * ff);
  scenario.victim = 0;
  scenario.driver_size = 75.0;
  scenario.input_slew = 100 * ps;
  scenario.aggressors.assign(
      2, {75.0, 100 * ps, core::AggressorSwitching::same_direction});

  core::ExperimentCase plain;
  plain.label = "plain";
  plain.driver_size = 75.0;
  plain.input_slew = 100 * ps;
  plain.net = short_line();

  for (const bool keep : {true, false}) {
    SCOPED_TRACE(keep ? "waveforms kept" : "waveforms dropped");
    core::CoupledExperimentOptions clean = fast_options();
    clean.keep_waveforms = keep;
    core::CoupledExperimentOptions asked = clean;
    asked.deck.sim.edge_stop.vdd = technology.vdd;
    const core::CoupledExperimentResult a =
        core::run_coupled_experiment(technology, library(), scenario, clean);
    const core::CoupledExperimentResult b =
        core::run_coupled_experiment(technology, library(), scenario, asked);
    EXPECT_EQ(a.peak_noise, b.peak_noise);
    EXPECT_EQ(a.ref_far.delay, b.ref_far.delay);
    EXPECT_EQ(a.base_far.delay, b.base_far.delay);
    EXPECT_EQ(a.model_far.delay, b.model_far.delay);
    expect_same_waveform(a.noise_wave, b.noise_wave);
    expect_same_waveform(a.ref_far_wave, b.ref_far_wave);

    core::ExperimentOptions plain_clean;
    plain_clean.deck = fast_options().deck;
    plain_clean.grid = small_grid();
    plain_clean.include_one_ramp = false;
    plain_clean.keep_waveforms = keep;
    core::ExperimentOptions plain_asked = plain_clean;
    plain_asked.deck.sim.edge_stop.vdd = technology.vdd;
    const core::ExperimentResult c =
        core::run_experiment(technology, library(), plain, plain_clean);
    const core::ExperimentResult d =
        core::run_experiment(technology, library(), plain, plain_asked);
    EXPECT_EQ(c.ref_far.delay, d.ref_far.delay);
    EXPECT_EQ(c.model_far.delay, d.model_far.delay);
    expect_same_waveform(c.ref_near_wave, d.ref_near_wave);
    expect_same_waveform(c.ref_far_wave, d.ref_far_wave);
    expect_same_waveform(c.model_far_wave, d.model_far_wave);
  }
}

}  // namespace
}  // namespace rlceff::net
