// Tests for the net::Net interconnect IR: construction-time validation, the
// deck compiler's equivalence with the legacy ladder/tree decks, moment
// equivalence, dominant-path metrics, and the experiment harness running a
// heterogeneous (multi-section) topology end to end.
#include "net/net.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <string>

#include "circuit/builders.h"
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
using rlceff::testing::expect_rel_near;
using rlceff::testing::lumped_branch;

void expect_series_rel_near(const util::Series& a, const util::Series& b,
                            double rel_tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    expect_rel_near(a[k], b[k], rel_tol);
  }
}

void expect_waveforms_match(const wave::Waveform& a, const wave::Waveform& b,
                            double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_DOUBLE_EQ(a.time(k), b.time(k)) << "sample " << k;
    EXPECT_NEAR(a.value(k), b.value(k), tol) << "t=" << a.time(k);
  }
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

// ---- construction-time validation ---------------------------------------

TEST(NetValidation, RejectsNonPhysicalUniformLines) {
  EXPECT_THROW(Net::uniform_line(-1.0, 1 * nh, 1 * pf, 20 * ff), Error);
  EXPECT_THROW(Net::uniform_line(0.0, 1 * nh, 1 * pf, 20 * ff), Error);
  EXPECT_THROW(Net::uniform_line(50.0, 1 * nh, 0.0, 20 * ff), Error);
  EXPECT_THROW(Net::uniform_line(50.0, 1 * nh, -1 * pf, 20 * ff), Error);
  EXPECT_THROW(Net::uniform_line(50.0, -1 * nh, 1 * pf, 20 * ff), Error);
  EXPECT_THROW(Net::uniform_line(50.0, 1 * nh, 1 * pf, -1 * ff), Error);
  EXPECT_NO_THROW(Net::uniform_line(50.0, 0.0, 1 * pf, 0.0));
}

TEST(NetValidation, ErrorsNameTheOffendingElement) {
  const std::string msg = error_message(
      [] { (void)Net::uniform_line(50.0, 1 * nh, -1 * pf, 20 * ff); });
  EXPECT_NE(std::string::npos, msg.find("section 0 of branch 'root'")) << msg;
  EXPECT_NE(std::string::npos, msg.find("capacitance")) << msg;

  Branch child_bad;
  child_bad.sections.push_back({-2.0, 0.0, 1 * pf, SectionKind::lumped});
  Branch root;
  root.sections.push_back({50.0, 1 * nh, 1 * pf, SectionKind::distributed});
  root.children = {Branch{{{30.0, 0.0, 0.1 * pf, SectionKind::lumped}}, 0.0, "", {}},
                   child_bad};
  const std::string nested = error_message([&root] { (void)Net(root); });
  EXPECT_NE(std::string::npos, nested.find("branch 'root/1'")) << nested;
}

// Pinned alongside the property harness's validation fuzz
// (testkit::check_validation_reporting): a defect two levels deep must name
// its full branch path and its in-branch section index, not a sibling's.
TEST(NetValidation, ErrorsNameDeepBranchPathsAndSectionIndices) {
  Branch leaf_ok{{{30.0, 1 * nh, 0.3 * pf, SectionKind::distributed}}, 10 * ff, "", {}};
  Branch leaf_bad;
  leaf_bad.sections.push_back({25.0, 1 * nh, 0.2 * pf, SectionKind::distributed});
  leaf_bad.sections.push_back({25.0, -1 * nh, 0.2 * pf, SectionKind::distributed});
  Branch mid;
  mid.sections.push_back({40.0, 2 * nh, 0.4 * pf, SectionKind::distributed});
  mid.children = {leaf_ok, leaf_bad};
  Branch root;
  root.sections.push_back({50.0, 1 * nh, 1 * pf, SectionKind::distributed});
  root.children = {leaf_ok, mid};

  const std::string msg = error_message([&root] { (void)Net(root); });
  EXPECT_NE(std::string::npos, msg.find("section 1 of branch 'root/1/1'")) << msg;
  EXPECT_NE(std::string::npos, msg.find("inductance")) << msg;

  // A negative load on the same deep branch names the path too.
  Branch load_bad = root;
  load_bad.children[1].children[1].sections.pop_back();
  load_bad.children[1].children[1].c_load = -1 * ff;
  const std::string load_msg = error_message([&load_bad] { (void)Net(load_bad); });
  EXPECT_NE(std::string::npos, load_msg.find("branch 'root/1/1'")) << load_msg;
  EXPECT_NE(std::string::npos, load_msg.find("load")) << load_msg;
}

TEST(NetValidation, RejectsEmptyAndZeroLengthNets) {
  EXPECT_THROW(Net::multi_section({}, 20 * ff), Error);
  EXPECT_THROW(Net(Branch{}), Error);  // no sections, no children

  Branch zero;
  zero.sections.push_back({0.0, 0.0, 0.0, SectionKind::lumped});
  EXPECT_THROW((void)Net(zero), Error);  // zero-length segment

  // A tree with no capacitance anywhere is rejected as well.
  Branch no_cap;
  no_cap.sections.push_back({10.0, 1 * nh, 0.0, SectionKind::lumped});
  EXPECT_THROW((void)Net(no_cap), Error);

  // Empty child branches would compile to phantom leaves at the junction.
  Branch phantom;
  phantom.sections.push_back({50.0, 1 * nh, 1 * pf, SectionKind::distributed});
  phantom.children = {Branch{}};
  const std::string msg = error_message([&phantom] { (void)Net(phantom); });
  EXPECT_NE(std::string::npos, msg.find("branch 'root/0' is empty")) << msg;
}

TEST(NetValidation, RejectsDuplicateProbeNames) {
  Branch arm{{{30.0, 1 * nh, 0.3 * pf, SectionKind::distributed}}, 10 * ff, "sink", {}};
  Branch root;
  root.sections.push_back({20.0, 0.5 * nh, 0.2 * pf, SectionKind::distributed});
  root.children = {arm, arm};
  const std::string msg = error_message([&root] { (void)Net(root); });
  EXPECT_NE(std::string::npos, msg.find("duplicate probe name 'sink'")) << msg;
}

TEST(NetValidation, EmptyNetAccessorsThrow) {
  Net empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.root(), Error);
  EXPECT_THROW((void)empty.metrics(), Error);
  EXPECT_THROW((void)empty.total_capacitance(), Error);
}

// ---- dominant-path metrics ----------------------------------------------

TEST(NetMetrics, UniformLineMatchesWireParasitics) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const NetMetrics m = tech::line_net(w, 20 * ff).metrics();
  expect_rel_near(w.z0(), m.z0, 1e-12);
  expect_rel_near(w.time_of_flight(), m.time_of_flight, 1e-12);
  expect_rel_near(w.resistance, m.path_resistance, 1e-12);
  expect_rel_near(w.capacitance, m.wire_capacitance, 1e-12);
  expect_rel_near(20 * ff, m.load_capacitance, 1e-12);
  expect_rel_near(20 * ff, m.path_load, 1e-12);
  EXPECT_EQ(0u, m.dominant_leaf);
  expect_rel_near(w.capacitance + 20 * ff, m.total_capacitance(), 1e-12);
}

TEST(NetMetrics, MultiSectionAccumulatesAlongTheRoute) {
  const Net route = Net::multi_section(
      {{40.0, 2 * nh, 0.5 * pf, SectionKind::distributed},
       {60.0, 3 * nh, 0.7 * pf, SectionKind::distributed}},
      20 * ff);
  const NetMetrics m = route.metrics();
  expect_rel_near(100.0, m.path_resistance, 1e-12);
  expect_rel_near(std::sqrt(5 * nh * 1.2 * pf), m.time_of_flight, 1e-12);
  expect_rel_near(std::sqrt(5 * nh / (1.2 * pf)), m.z0, 1e-12);
  expect_rel_near(1.2 * pf, m.wire_capacitance, 1e-12);
  expect_rel_near(20 * ff, m.path_load, 1e-12);
}

// ---- moment equivalence --------------------------------------------------

TEST(NetMoments, UniformLineMatchesDistributedExpansion) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const util::Series y_net = moments::net_admittance(tech::line_net(w, 20 * ff));
  const util::Series y_ref = moments::distributed_line_admittance(
      w.resistance, w.inductance, w.capacitance, 20 * ff);
  expect_series_rel_near(y_net, y_ref, 1e-12);
}

TEST(NetMoments, UniformLineNetMatchesEquivalentLumpedChain) {
  // A uniform-line Net discretized as a lumped chain converges to the same
  // moments; at 60 sections the low-order moments agree to a fraction of a
  // percent (they drive Ceff1/Ceff2, so this pins the IR's two views of one
  // wire together).
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const std::size_t n = 60;
  Branch chain =
      lumped_branch(w.resistance / n, w.inductance / n, w.capacitance / n + 20 * ff);
  for (std::size_t k = 1; k < n; ++k) {
    chain = lumped_branch(w.resistance / n, w.inductance / n, w.capacitance / n,
                          {std::move(chain)});
  }
  const util::Series y_line = moments::net_admittance(tech::line_net(w, 20 * ff));
  const util::Series y_chain = moments::net_admittance(Net(std::move(chain)));
  expect_rel_near(y_line[1], y_chain[1], 1e-9);  // total capacitance is exact
  // Higher moments converge as O(1/n) in the section count: a few percent at
  // n = 60.
  for (std::size_t k = 2; k <= 4; ++k) {
    expect_rel_near(y_line[k], y_chain[k], 5e-2);
  }
}

TEST(NetMoments, SectionCascadeOfSubLinesIsExact) {
  // Splitting a uniform line into three exact distributed sub-sections must
  // not change the driving-point expansion (the cascade is algebraically the
  // whole line).
  const tech::WireParasitics w = *tech::find_paper_wire_case(6.0, 2.0);
  const Net whole = tech::line_net(w, 20 * ff);
  const Section third{w.resistance / 3.0, w.inductance / 3.0, w.capacitance / 3.0,
                      SectionKind::distributed};
  const Net split = Net::multi_section({third, third, third}, 20 * ff);
  expect_series_rel_near(moments::net_admittance(whole),
                         moments::net_admittance(split), 1e-9);
}

// ---- deck equivalence ----------------------------------------------------

sim::TransientOptions fast_transient() {
  sim::TransientOptions opt;
  opt.t_stop = 0.6 * ns;
  opt.dt = 0.5 * ps;
  return opt;
}

TEST(NetDeck, UniformLineMatchesLegacyLadderDeck) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const wave::Pwl source({{5 * ps, 0.0}, {55 * ps, 1.8}});
  const std::size_t segments = 40;

  // Legacy deck: explicit ladder plus far-end capacitor.
  ckt::Netlist legacy;
  const ckt::NodeId out = legacy.node("out");
  legacy.add_vsource(out, ckt::ground, source);
  const ckt::LadderNodes line = ckt::append_rlc_ladder(
      legacy, out, w.resistance, w.inductance, w.capacitance, segments);
  legacy.add_capacitor(line.far_end, ckt::ground, 20 * ff);
  const std::array<ckt::NodeId, 2> probes{out, line.far_end};
  const sim::TransientResult ref = sim::simulate(legacy, fast_transient(), probes);

  // IR deck: same net compiled through append_net.
  tech::DeckOptions deck;
  deck.segments = segments;
  deck.t_stop = 0.6 * ns;
  deck.dt = 0.5 * ps;
  const tech::NetSimResult net_sim =
      tech::simulate_source_net(source, tech::line_net(w, 20 * ff), deck);

  ASSERT_EQ(1u, net_sim.leaves.size());
  expect_waveforms_match(net_sim.near_end, ref.at(out), 1e-10);
  expect_waveforms_match(net_sim.leaves[0], ref.at(line.far_end), 1e-10);
}

// Replicates the legacy tree deck construction (testbench build_tree before
// the IR refactor) on a tree of one-lumped-section branches: each branch
// becomes a ladder, children hang off its far end, capacitance-only branches
// become plain shunts.
ckt::NodeId legacy_tree_branch(ckt::Netlist& nl, ckt::NodeId from, const Branch& branch,
                               std::size_t segments, std::vector<ckt::NodeId>& leaves) {
  ckt::NodeId far = from;
  const Section s = branch.sections.empty() ? Section{} : branch.sections.front();
  if (s.resistance > 0.0 && s.capacitance > 0.0) {
    far = ckt::append_rlc_ladder(nl, from, s.resistance, s.inductance, s.capacitance,
                                 segments)
              .far_end;
  } else if (s.capacitance > 0.0) {
    nl.add_capacitor(from, ckt::ground, s.capacitance);
  }
  if (branch.children.empty()) {
    leaves.push_back(far);
    return far;
  }
  for (const Branch& child : branch.children) {
    legacy_tree_branch(nl, far, child, segments, leaves);
  }
  return far;
}

TEST(NetDeck, LumpedTreeMatchesLegacyTreeDeck) {
  const Branch cap_only = lumped_branch(0.0, 0.0, 0.1 * pf);
  const Branch trunk =
      lumped_branch(15.0, 0.8 * nh, 0.2 * pf,
                    {lumped_branch(30.0, 1.5 * nh, 0.4 * pf),
                     lumped_branch(50.0, 2.5 * nh, 0.8 * pf, {cap_only})});
  const wave::Pwl source({{5 * ps, 0.0}, {55 * ps, 1.8}});
  const std::size_t segments = 10;

  ckt::Netlist legacy;
  const ckt::NodeId out = legacy.node("out");
  legacy.add_vsource(out, ckt::ground, source);
  std::vector<ckt::NodeId> leaves;
  legacy_tree_branch(legacy, out, trunk, segments, leaves);
  std::vector<ckt::NodeId> probes{out};
  probes.insert(probes.end(), leaves.begin(), leaves.end());
  const sim::TransientResult ref = sim::simulate(legacy, fast_transient(), probes);

  tech::DeckOptions deck;
  deck.segments = segments;
  deck.t_stop = 0.6 * ns;
  deck.dt = 0.5 * ps;
  const tech::NetSimResult net_sim =
      tech::simulate_source_net(source, Net(trunk), deck);

  ASSERT_EQ(leaves.size(), net_sim.leaves.size());
  expect_waveforms_match(net_sim.near_end, ref.at(out), 1e-10);
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    expect_waveforms_match(net_sim.leaves[k], ref.at(leaves[k]), 1e-10);
  }
}

TEST(NetDeck, SeriesOnlyLumpedSectionsAreStamped) {
  // A lumped section with series R/L but no shunt C must still reach the
  // deck (as single lumps), so the simulated reference sees the same
  // impedance moments::net_admittance models.
  Branch root;
  root.sections.push_back({100.0, 2 * nh, 0.0, SectionKind::lumped});
  root.c_load = 1 * pf;
  const Net series_net{root};

  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  const ckt::NetDeckNodes nodes = ckt::append_net(nl, in, series_net, 10);
  ASSERT_EQ(1u, nodes.leaves.size());
  EXPECT_NE(in, nodes.leaves[0]);  // the load hangs behind the series lumps
  EXPECT_EQ(1u, nl.resistors().size());
  EXPECT_EQ(1u, nl.inductors().size());
  EXPECT_EQ(1u, nl.capacitors().size());

  // And the moments of that net see the series element too (y2 = -R*C^2).
  const util::Series y = moments::net_admittance(series_net);
  expect_rel_near(1 * pf, y[1], 1e-12);
  expect_rel_near(-100.0 * (1 * pf) * (1 * pf), y[2], 1e-12);
}

TEST(NetDeck, NamedProbesResolveAndUnknownThrows) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(3.0, 1.2);
  const wave::Pwl source({{5 * ps, 0.0}, {55 * ps, 1.8}});
  tech::DeckOptions deck;
  deck.segments = 20;
  deck.t_stop = 0.4 * ns;
  deck.dt = 0.5 * ps;
  const tech::NetSimResult r =
      tech::simulate_source_net(source, tech::line_net(w, 20 * ff), deck);
  ASSERT_EQ(1u, r.probes.size());
  expect_waveforms_match(r.probe("far"), r.leaves[0], 0.0);
  EXPECT_THROW((void)r.probe("nonexistent"), Error);
}

// ---- experiment harness on a heterogeneous topology ----------------------

TEST(NetExperiment, MultiSectionRouteRunsEndToEnd) {
  const tech::Technology technology = tech::Technology::cmos180();
  const tech::WireModel wires;
  const std::array<tech::WireGeometry, 3> route{{{1.0 * mm, 2.4 * um},
                                                 {1.0 * mm, 1.6 * um},
                                                 {1.0 * mm, 0.8 * um}}};

  core::ExperimentCase c;
  c.driver_size = 75.0;
  c.input_slew = 100 * ps;
  c.net = tech::route_net(wires, route, 20 * ff);

  core::ExperimentOptions opt;
  opt.deck.segments = 30;
  opt.deck.dt = 1 * ps;
  opt.grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
  opt.grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 2 * pf};
  opt.include_one_ramp = false;

  charlib::CellLibrary library;
  const core::ExperimentResult r = core::run_experiment(technology, library, c, opt);

  // The harness must produce coherent timing: the far end lags the near end,
  // and the model tracks the simulated reference on this mildly non-uniform
  // route.
  EXPECT_GT(r.ref_far.delay, r.ref_near.delay);
  EXPECT_LT(std::abs(core::pct_error(r.model_near.delay, r.ref_near.delay)), 30.0);
  EXPECT_LT(std::abs(core::pct_error(r.model_far.delay, r.ref_far.delay)), 30.0);
  EXPECT_TRUE(r.model.ceff1.converged);
}

}  // namespace
}  // namespace rlceff::net
