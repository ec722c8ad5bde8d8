// Tests for the RLC-tree extension and the ref-[11] shielding tail.
#include <gtest/gtest.h>

#include <cmath>

#include "charlib/library.h"
#include "core/driver_model.h"
#include "net/net.h"
#include "tech/testbench.h"
#include "tech/wire.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::core {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;
using rlceff::testing::lumped_branch;

// A uniform line expressed as a chain of lumped branches.
net::Net chain_for_wire(const tech::WireParasitics& w, std::size_t sections,
                        double c_leaf) {
  const double n = static_cast<double>(sections);
  net::Branch node =
      lumped_branch(w.resistance / n, w.inductance / n, w.capacitance / n + c_leaf);
  for (std::size_t k = 1; k < sections; ++k) {
    node = lumped_branch(w.resistance / n, w.inductance / n, w.capacitance / n,
                         {std::move(node)});
  }
  return net::Net(std::move(node));
}

TEST(TreeMetrics, ChainMatchesUniformLine) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const net::NetMetrics m = chain_for_wire(w, 20, 0.0).metrics();
  expect_rel_near(w.z0(), m.z0, 1e-9);
  expect_rel_near(w.time_of_flight(), m.time_of_flight, 1e-9);
  expect_rel_near(w.resistance, m.path_resistance, 1e-9);
  expect_rel_near(w.capacitance, m.total_capacitance(), 1e-9);
}

TEST(TreeMetrics, PicksDominantPath) {
  // Two asymmetric arms: the long arm defines the flight time.
  const net::Net trunk(lumped_branch(10.0, 0.5 * nh, 0.1 * pf,
                                     {lumped_branch(20.0, 1 * nh, 0.3 * pf),
                                      lumped_branch(60.0, 4 * nh, 1.0 * pf)}));
  const net::NetMetrics m = trunk.metrics();
  const double l_path = 0.5 * nh + 4 * nh;
  const double c_path = 0.1 * pf + 1.0 * pf;
  expect_rel_near(std::sqrt(l_path * c_path), m.time_of_flight, 1e-9);
  expect_rel_near(std::sqrt(l_path / c_path), m.z0, 1e-9);
  expect_rel_near(70.0, m.path_resistance, 1e-9);
  expect_rel_near(1.4 * pf, m.total_capacitance(), 1e-9);
  EXPECT_EQ(1u, m.dominant_leaf);  // depth-first: long arm is the second leaf
}

TEST(TreeMetrics, RejectsDegenerateTrees) {
  EXPECT_THROW(net::Net(lumped_branch(10.0, 1 * nh, 0.0)), Error);
  // Capacitance but no inductance on any path: no flight time to report.
  const net::Net rc(lumped_branch(10.0, 0.0, 1 * pf));
  EXPECT_THROW(rc.metrics(), Error);
}

class TreeModelFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    technology_ = new tech::Technology(tech::Technology::cmos180());
    charlib::CharacterizationGrid grid;
    grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    grid.loads = {50 * ff, 200 * ff, 500 * ff, 1 * pf, 1.8 * pf, 3 * pf, 5 * pf};
    library_ = new charlib::CellLibrary();
    library_->ensure_driver(*technology_, 100.0, grid);
    library_->ensure_driver(*technology_, 25.0, grid);
  }
  static void TearDownTestSuite() {
    delete library_;
    delete technology_;
    library_ = nullptr;
    technology_ = nullptr;
  }

  static tech::Technology* technology_;
  static charlib::CellLibrary* library_;
};

tech::Technology* TreeModelFixture::technology_ = nullptr;
charlib::CellLibrary* TreeModelFixture::library_ = nullptr;

TEST_F(TreeModelFixture, ChainTreeReproducesWireModel) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(5.0, 1.6);
  const charlib::CharacterizedDriver& driver = *library_->find(100.0);

  const DriverOutputModel via_wire =
      model_driver_output(driver, 100 * ps, tech::line_net(w, 20 * ff));
  const DriverOutputModel via_tree =
      model_driver_output(driver, 100 * ps, chain_for_wire(w, 40, 20 * ff));

  EXPECT_EQ(via_wire.kind, via_tree.kind);
  // Lumped 40-section moments vs exact distributed moments: a few percent
  // (Ceff1 is the most sensitive, living entirely in the early transient).
  expect_rel_near(via_wire.f, via_tree.f, 0.02);
  expect_rel_near(via_wire.ceff1.ceff, via_tree.ceff1.ceff, 0.08);
  expect_rel_near(via_wire.ceff2.ceff, via_tree.ceff2.ceff, 0.08);
  expect_rel_near(via_wire.t50, via_tree.t50, 0.05);
}

TEST_F(TreeModelFixture, BranchedNetEndToEnd) {
  // A trunk splitting into two arms with receiver caps at the leaves.
  const tech::WireModel wires;
  const tech::WireParasitics trunk_w = wires.extract({2 * mm, 1.6 * um});
  const tech::WireParasitics arm_w = wires.extract({2.5 * mm, 1.2 * um});
  const net::Branch arm =
      lumped_branch(arm_w.resistance, arm_w.inductance, arm_w.capacitance + 20 * ff);
  const net::Net net(lumped_branch(trunk_w.resistance, trunk_w.inductance,
                                   trunk_w.capacitance, {arm, arm}));

  const charlib::CharacterizedDriver& driver = *library_->find(100.0);
  const DriverOutputModel model = model_driver_output(driver, 100 * ps, net);
  EXPECT_GT(model.f, 0.0);
  EXPECT_TRUE(model.ceff1.converged);

  // Reference: simulate the driver into the discretized tree.
  tech::DeckOptions deck;
  deck.dt = 0.5 * ps;
  deck.t_stop = 2 * ns;
  deck.segments = 30;
  const tech::NetSimResult sim = tech::simulate_driver_net(
      *technology_, tech::Inverter{100.0}, 100 * ps, net, deck);
  ASSERT_EQ(2u, sim.leaves.size());

  const auto near = wave::measure_rising_edge(sim.near_end, 0.0, technology_->vdd);
  const double ref_delay = near.t50 - sim.input_time_50;
  const double model_delay = model.t50;
  // Branched nets stress the single-Z0 assumption: the branch point halves
  // the impedance, so the reflection pattern is richer than one line's.
  // The model stays within the ~30 % band (the sink replay below is much
  // tighter, which is what timing actually consumes).
  EXPECT_LT(std::abs(model_delay - ref_delay) / ref_delay, 0.30);

  // Symmetric arms must produce identical sink waveforms.
  const auto leaf_a = wave::measure_rising_edge(sim.leaves[0], 0.0, technology_->vdd);
  const auto leaf_b = wave::measure_rising_edge(sim.leaves[1], 0.0, technology_->vdd);
  expect_rel_near(leaf_a.t50, leaf_b.t50, 1e-6);
}

TEST_F(TreeModelFixture, ReplayThroughTreeMatchesSinkDelay) {
  const tech::WireModel wires;
  const tech::WireParasitics trunk_w = wires.extract({2 * mm, 2.0 * um});
  const tech::WireParasitics arm_w = wires.extract({2 * mm, 1.2 * um});
  const net::Branch arm =
      lumped_branch(arm_w.resistance, arm_w.inductance, arm_w.capacitance + 20 * ff);
  const net::Net tree(lumped_branch(trunk_w.resistance, trunk_w.inductance,
                                    trunk_w.capacitance, {arm, arm}));

  const charlib::CharacterizedDriver& driver = *library_->find(100.0);
  const DriverOutputModel model = model_driver_output(driver, 100 * ps, tree);

  tech::DeckOptions deck;
  deck.dt = 0.5 * ps;
  deck.t_stop = 2 * ns;
  deck.segments = 30;
  const auto ref = tech::simulate_driver_net(*technology_, tech::Inverter{100.0},
                                             100 * ps, tree, deck);
  // Replay the modeled waveform (shifted to deck time) through the tree.
  std::vector<std::pair<double, double>> pts = model.waveform.points();
  for (auto& [t, v] : pts) t += ref.input_time_50;
  const auto replay = tech::simulate_source_net(wave::Pwl(std::move(pts)), tree, deck);

  const auto ref_leaf = wave::measure_rising_edge(ref.leaves[0], 0.0, technology_->vdd);
  const auto mod_leaf = wave::measure_rising_edge(replay.leaves[0], 0.0, technology_->vdd);
  const double ref_delay = ref_leaf.t50 - ref.input_time_50;
  const double mod_delay = mod_leaf.t50 - ref.input_time_50;
  EXPECT_LT(std::abs(mod_delay - ref_delay) / ref_delay, 0.12);
}

TEST_F(TreeModelFixture, ShieldingTailActivatesForWeakDriverLongLine) {
  // 25X on a 7 mm line: strong resistive shielding.
  const tech::WireParasitics w = *tech::find_paper_wire_case(7.0, 1.6);
  const charlib::CharacterizedDriver& driver = *library_->find(25.0);

  DriverModelOptions with_tail;
  with_tail.shielding_tail = true;
  const DriverOutputModel m =
      model_driver_output(driver, 100 * ps, tech::line_net(w, 20 * ff), with_tail);
  ASSERT_EQ(ModelKind::one_ramp, m.kind);
  EXPECT_TRUE(m.has_shielding_tail);
  EXPECT_GT(m.tail_tau, 0.0);

  // The tail only slows the 90 % point; the anchored 50 % delay is unchanged.
  DriverModelOptions no_tail = with_tail;
  no_tail.shielding_tail = false;
  const DriverOutputModel plain =
      model_driver_output(driver, 100 * ps, tech::line_net(w, 20 * ff), no_tail);
  EXPECT_FALSE(plain.has_shielding_tail);
  expect_rel_near(plain.t50, m.t50, 1e-9);

  const auto wt = wave::measure_rising_edge(
      m.waveform.to_waveform(m.waveform.end_time() + 1 * ns), 0.0, m.vdd);
  const auto wp = wave::measure_rising_edge(
      plain.waveform.to_waveform(plain.waveform.end_time() + 1 * ns), 0.0, m.vdd);
  EXPECT_GT(wt.t90, wp.t90);
}

TEST_F(TreeModelFixture, ShieldingTailImprovesSlewAccuracy) {
  const tech::WireParasitics w = *tech::find_paper_wire_case(7.0, 1.6);
  const charlib::CharacterizedDriver& driver = *library_->find(25.0);

  tech::DeckOptions deck;
  deck.segments = 60;
  deck.dt = 0.5 * ps;
  deck.t_stop = 4 * ns;
  const net::Net line = tech::line_net(w, 20 * ff);
  const auto sim = tech::simulate_driver_net(*technology_, tech::Inverter{25.0},
                                             100 * ps, line, deck);
  const auto ref = wave::measure_rising_edge(sim.near_end, 0.0, technology_->vdd);

  DriverModelOptions with_tail;
  with_tail.shielding_tail = true;
  DriverModelOptions no_tail;
  no_tail.shielding_tail = false;
  const auto m_tail = model_driver_output(driver, 100 * ps, line, with_tail);
  const auto m_plain = model_driver_output(driver, 100 * ps, line, no_tail);

  const auto e_tail = wave::measure_rising_edge(
      m_tail.waveform.to_waveform(m_tail.waveform.end_time() + 1 * ns), 0.0,
      technology_->vdd);
  const auto e_plain = wave::measure_rising_edge(
      m_plain.waveform.to_waveform(m_plain.waveform.end_time() + 1 * ns), 0.0,
      technology_->vdd);

  const double ref_slew = ref.transition_10_90();
  const double err_tail = std::abs(e_tail.transition_10_90() - ref_slew);
  const double err_plain = std::abs(e_plain.transition_10_90() - ref_slew);
  EXPECT_LT(err_tail, err_plain);
}

}  // namespace
}  // namespace rlceff::core
