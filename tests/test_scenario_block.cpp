// Scenario batching (sim/scenario_block.h): grouping hash/confirm, and the
// block engine's bitwise-equivalence and per-lane isolation contracts.
#include "sim/scenario_block.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "sim/transient.h"
#include "util/budget.h"
#include "util/error.h"
#include "waveform/pwl.h"

namespace rlceff {
namespace {

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- grouping ------------------------------------------------------------

// The test deck: an RLC ladder driven by a saturated ramp.  Lanes of a group
// share every element value and differ only in the source slew (the matrix
// never sees the waveform).
ckt::Netlist make_line_deck(double slew, std::size_t segments,
                            double c_per_seg = 3e-15) {
  ckt::Netlist nl;
  const ckt::NodeId in = nl.node("in");
  nl.add_vsource(in, ckt::ground,
                 wave::Pwl({{10e-12, 0.0}, {10e-12 + slew, 1.0}}));
  ckt::NodeId prev = in;
  for (std::size_t k = 0; k < segments; ++k) {
    const ckt::NodeId mid = nl.add_node();
    const ckt::NodeId next = nl.add_node();
    nl.add_resistor(prev, mid, 2.0);
    nl.add_inductor(mid, next, 5e-12);
    nl.add_capacitor(next, ckt::ground, c_per_seg);
    prev = next;
  }
  nl.add_capacitor(prev, ckt::ground, 20e-15);
  return nl;
}

ckt::NodeId far_node(std::size_t segments) { return 1 + 2 * segments; }

TEST(ScenarioGrouping, WaveformsDoNotAffectGroupIdentity) {
  const ckt::Netlist a = make_line_deck(20e-12, 8);
  const ckt::Netlist b = make_line_deck(180e-12, 8);
  sim::TransientOptions opt;
  EXPECT_TRUE(sim::scenario_group_equal(a, b));
  EXPECT_EQ(sim::scenario_group_hash(a, opt), sim::scenario_group_hash(b, opt));
  EXPECT_TRUE(sim::scenario_options_equal(opt, opt));
}

TEST(ScenarioGrouping, OneUlpPerturbationNeverAliases) {
  const double c = 3e-15;
  const ckt::Netlist a = make_line_deck(50e-12, 8, c);
  const ckt::Netlist b = make_line_deck(50e-12, 8, std::nextafter(c, 1.0));
  sim::TransientOptions opt;
  EXPECT_FALSE(sim::scenario_group_equal(a, b));
  EXPECT_NE(sim::scenario_group_hash(a, opt), sim::scenario_group_hash(b, opt));
}

TEST(ScenarioGrouping, TopologyEdgeNeverAliases) {
  const ckt::Netlist a = make_line_deck(50e-12, 8);
  ckt::Netlist b = make_line_deck(50e-12, 8);
  b.add_resistor(far_node(8), ckt::ground, 1e6);
  sim::TransientOptions opt;
  EXPECT_FALSE(sim::scenario_group_equal(a, b));
  EXPECT_NE(sim::scenario_group_hash(a, opt), sim::scenario_group_hash(b, opt));
}

TEST(ScenarioGrouping, MatrixShapingOptionsSplitGroups) {
  const ckt::Netlist a = make_line_deck(50e-12, 8);
  sim::TransientOptions opt;
  sim::TransientOptions finer = opt;
  finer.dt = std::nextafter(opt.dt, 0.0);
  EXPECT_FALSE(sim::scenario_options_equal(opt, finer));
  EXPECT_NE(sim::scenario_group_hash(a, opt), sim::scenario_group_hash(a, finer));
  sim::TransientOptions other_solver = opt;
  other_solver.solver = sim::SolverKind::dense;
  EXPECT_FALSE(sim::scenario_options_equal(opt, other_solver));
}

// ---- block engine vs scalar engine --------------------------------------

void expect_bitwise(const wave::Waveform& a, const wave::Waveform& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(dbits(a.time(i)), dbits(b.time(i))) << what << " t[" << i << "]";
    ASSERT_EQ(dbits(a.value(i)), dbits(b.value(i))) << what << " v[" << i << "]";
  }
}

class BlockVsScalar : public ::testing::TestWithParam<sim::SolverKind> {};

TEST_P(BlockVsScalar, LanesBitwiseMatchPerSlotRuns) {
  const std::size_t segments = 12;
  // Mixed horizons: exact step multiples, partial final steps, and one lane
  // short enough to retire while the rest keep integrating.
  const std::vector<double> slews{20e-12, 60e-12, 110e-12, 160e-12, 220e-12};
  const std::vector<double> t_stops{400e-12, 400.3e-12, 250e-12, 330.7e-12,
                                    120.9e-12};

  std::vector<ckt::Netlist> decks;
  for (double s : slews) decks.push_back(make_line_deck(s, segments));
  const std::vector<ckt::NodeId> probes{1, far_node(segments)};

  sim::TransientOptions opt;
  opt.dt = 1e-12;
  opt.solver = GetParam();

  std::vector<sim::BlockScenario> scenarios;
  for (std::size_t k = 0; k < decks.size(); ++k) {
    scenarios.push_back({&decks[k], t_stops[k], nullptr});
  }
  const std::vector<sim::BlockOutcome> block =
      sim::simulate_block(scenarios, opt, probes);

  for (std::size_t k = 0; k < decks.size(); ++k) {
    ASSERT_TRUE(block[k].result.has_value()) << "lane " << k;
    sim::TransientOptions scalar_opt = opt;
    scalar_opt.t_stop = t_stops[k];
    const sim::TransientResult ref = sim::simulate(decks[k], scalar_opt, probes);
    // The same scenario as a one-lane block (its shortened final step
    // refactors in place instead of on the tail solver).
    const std::vector<sim::BlockOutcome> alone = sim::simulate_block(
        std::span<const sim::BlockScenario>(&scenarios[k], 1), opt, probes);
    ASSERT_TRUE(alone[0].result.has_value()) << "one-lane block " << k;
    for (ckt::NodeId p : probes) {
      expect_bitwise(block[k].result->at(p), ref.at(p), "probe");
      expect_bitwise(alone[0].result->at(p), ref.at(p), "one-lane probe");
    }
  }
}

// A group whose lanes retire one at a time, each at its own step, so every
// active lane count from the group's size down to 1 runs: 16 lanes (a
// Fig-7 group) and 49 (the bench/scenario_batching group, wider than the
// widest fixed-width kernel).
TEST_P(BlockVsScalar, LanesRetiringOneAtATimeMatchPerSlotRuns) {
  const std::size_t segments = 8;
  const std::vector<ckt::NodeId> probes{1, far_node(segments)};
  sim::TransientOptions opt;
  opt.dt = 1e-12;
  opt.solver = GetParam();

  for (const std::size_t lanes : {std::size_t{16}, std::size_t{49}}) {
    std::vector<ckt::Netlist> decks;
    std::vector<sim::BlockScenario> scenarios;
    for (std::size_t k = 0; k < lanes; ++k) {
      decks.push_back(make_line_deck((15.0 + 4.0 * static_cast<double>(k)) * 1e-12, segments));
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      // 1.37 steps apart: every lane ends at its own step, most mid-step.
      scenarios.push_back({&decks[k], (40.0 + 1.37 * static_cast<double>(k)) * 1e-12, nullptr});
    }
    const std::vector<sim::BlockOutcome> block =
        sim::simulate_block(scenarios, opt, probes);
    for (std::size_t k = 0; k < lanes; ++k) {
      ASSERT_TRUE(block[k].result.has_value()) << lanes << " lanes, lane " << k;
      sim::TransientOptions scalar_opt = opt;
      scalar_opt.t_stop = scenarios[k].t_stop;
      const sim::TransientResult ref = sim::simulate(decks[k], scalar_opt, probes);
      for (ckt::NodeId p : probes) {
        expect_bitwise(block[k].result->at(p), ref.at(p), "retiring lane");
      }
    }
  }
}

// The result names the backend its run factored with, which is the one
// sim::selected_solver reports for the deck.
TEST_P(BlockVsScalar, ResultNamesTheSelectedBackend) {
  const ckt::Netlist deck = make_line_deck(50e-12, 6);
  const std::vector<ckt::NodeId> probes{far_node(6)};
  sim::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 50e-12;
  opt.solver = GetParam();
  EXPECT_EQ(GetParam(), sim::selected_solver(deck, opt));
  EXPECT_EQ(GetParam(), sim::simulate(deck, opt, probes).solver());
  const sim::BlockScenario lane{&deck, opt.t_stop, nullptr};
  const std::vector<sim::BlockOutcome> block =
      sim::simulate_block(std::span<const sim::BlockScenario>(&lane, 1), opt, probes);
  ASSERT_TRUE(block[0].result.has_value());
  EXPECT_EQ(GetParam(), block[0].result->solver());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BlockVsScalar,
                         ::testing::Values(sim::SolverKind::banded,
                                           sim::SolverKind::dense,
                                           sim::SolverKind::sparse),
                         [](const auto& info) {
                           return std::string(sim::to_string(info.param));
                         });

TEST(BlockIsolation, FaultedLaneLeavesGroupMatesBitwise) {
  const std::size_t segments = 10;
  const std::vector<double> slews{30e-12, 80e-12, 140e-12, 200e-12};
  const std::vector<double> t_stops{500e-12, 400e-12, 300e-12, 200.4e-12};
  std::vector<ckt::Netlist> decks;
  for (double s : slews) decks.push_back(make_line_deck(s, segments));
  const std::vector<ckt::NodeId> probes{1, far_node(segments)};

  sim::TransientOptions opt;
  opt.dt = 1e-12;

  // Clean run: everything succeeds.
  std::vector<sim::BlockScenario> clean;
  for (std::size_t k = 0; k < decks.size(); ++k) {
    clean.push_back({&decks[k], t_stops[k], nullptr});
  }
  const std::vector<sim::BlockOutcome> want =
      sim::simulate_block(clean, opt, probes);
  for (const sim::BlockOutcome& o : want) ASSERT_TRUE(o.result.has_value());

  // Faulted run: lane 0 has the longest horizon (so it sits at the *front*
  // of the sorted block, exercising the mid-array removal) and a step budget
  // that runs dry mid-flight.
  util::ExecBudget budget;
  budget.max_transient_steps = 150;
  util::ExecTracker tracker(budget);
  std::vector<sim::BlockScenario> faulted = clean;
  faulted[0].budget = &tracker;
  const std::vector<sim::BlockOutcome> got =
      sim::simulate_block(faulted, opt, probes);

  ASSERT_FALSE(got[0].result.has_value());
  ASSERT_TRUE(static_cast<bool>(got[0].error));
  EXPECT_THROW(std::rethrow_exception(got[0].error), BudgetError);

  for (std::size_t k = 1; k < decks.size(); ++k) {
    ASSERT_TRUE(got[k].result.has_value()) << "lane " << k;
    for (ckt::NodeId p : probes) {
      expect_bitwise(got[k].result->at(p), want[k].result->at(p), "survivor");
    }
  }
}

TEST(BlockIsolation, PerLaneBudgetsChargeIndependently) {
  const std::size_t segments = 6;
  std::vector<ckt::Netlist> decks;
  decks.push_back(make_line_deck(40e-12, segments));
  decks.push_back(make_line_deck(90e-12, segments));
  const std::vector<ckt::NodeId> probes{far_node(segments)};

  sim::TransientOptions opt;
  opt.dt = 1e-12;

  // Both lanes carry ample budgets; each must be charged its own lane's
  // steps — exactly what the scalar engine charges that scenario — not the
  // block's total.
  util::ExecBudget budget;
  budget.max_transient_steps = 250;
  util::ExecTracker ta(budget);
  util::ExecTracker tb(budget);
  std::vector<sim::BlockScenario> scenarios{{&decks[0], 200e-12, &ta},
                                            {&decks[1], 200e-12, &tb}};
  const std::vector<sim::BlockOutcome> got =
      sim::simulate_block(scenarios, opt, probes);
  ASSERT_TRUE(got[0].result.has_value());
  ASSERT_TRUE(got[1].result.has_value());

  util::ExecTracker scalar_tracker(budget);
  sim::TransientOptions scalar_opt = opt;
  scalar_opt.t_stop = 200e-12;
  scalar_opt.budget = &scalar_tracker;
  (void)sim::simulate(decks[0], scalar_opt, probes);
  EXPECT_EQ(ta.steps_used(), scalar_tracker.steps_used());
  EXPECT_EQ(tb.steps_used(), scalar_tracker.steps_used());
}

TEST(BlockEngine, RejectsMixedTopologies) {
  ckt::Netlist a = make_line_deck(40e-12, 6);
  ckt::Netlist b = make_line_deck(40e-12, 7);
  const std::vector<ckt::NodeId> probes{1};
  sim::TransientOptions opt;
  opt.dt = 1e-12;
  std::vector<sim::BlockScenario> scenarios{{&a, 100e-12, nullptr},
                                            {&b, 100e-12, nullptr}};
  EXPECT_THROW(sim::simulate_block(scenarios, opt, probes), Error);
}

}  // namespace
}  // namespace rlceff
