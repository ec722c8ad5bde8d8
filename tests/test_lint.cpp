// Tests for the static-diagnostics subsystem (src/lint/): the code taxonomy
// itself, one trigger + near-miss pair per diagnostic code, and the
// consolidated construction-time validation (net::Net / net::CoupledGroup /
// ckt::Netlist throwing DiagnosticError from the same taxonomy).
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "circuit/netlist.h"
#include "net/coupled.h"
#include "net/net.h"
#include "tech/technology.h"
#include "tech/wire.h"
#include "util/units.h"

namespace rlceff::lint {
namespace {

using namespace rlceff::units;

// ---------------------------------------------------------------- taxonomy ---

TEST(LintTaxonomy, EveryCodeHasStableNameFamilyAndSeverity) {
  EXPECT_EQ(code_count, all_codes().size());
  const std::set<std::string> families = {"connectivity", "physicality",
                                          "conditioning", "model", "input",
                                          "tier"};
  std::set<std::string> names;
  for (Code code : all_codes()) {
    const std::string name = to_string(code);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate code name " << name;
    EXPECT_TRUE(families.count(family(code))) << name << ": " << family(code);
    // default_severity must round-trip through to_string.
    EXPECT_STRNE("", to_string(default_severity(code)));
  }
  // Spot-check the contract the CLI/CI greps key on.
  EXPECT_STREQ("nonpositive_capacitance", to_string(Code::nonpositive_capacitance));
  EXPECT_STREQ("physicality", family(Code::mutual_overcoupled));
  EXPECT_STREQ("input", family(Code::invalid_input));
  EXPECT_EQ(Severity::error, default_severity(Code::invalid_input));
  EXPECT_EQ(Severity::warn, default_severity(Code::mutual_near_limit));
  EXPECT_EQ(Severity::info, default_severity(Code::solver_advisory));
}

TEST(LintTaxonomy, FormatCarriesSeverityFamilyCodePathAndHint) {
  const Diagnostic d = make_diagnostic(Code::invalid_input, "line 7",
                                       "unparseable geometry", "fix the deck");
  EXPECT_EQ(Severity::error, d.severity);  // defaulted from the code
  const std::string text = format(d);
  EXPECT_NE(std::string::npos, text.find("error"));
  EXPECT_NE(std::string::npos, text.find("[input.invalid_input]"));
  EXPECT_NE(std::string::npos, text.find("line 7"));
  EXPECT_NE(std::string::npos, text.find("unparseable geometry"));
  EXPECT_NE(std::string::npos, text.find("(fix: fix the deck)"));
}

TEST(LintTaxonomy, DiagnosticErrorCarriesTheDiagnostic) {
  try {
    ensure_diag(false, Code::negative_load, "branch 'root'", "has a negative load",
                "loads are capacitances");
    FAIL() << "ensure_diag(false, ...) must throw";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::negative_load, e.code());
    EXPECT_EQ("branch 'root'", e.diagnostic().path);
    EXPECT_NE(std::string::npos,
              std::string(e.what()).find("branch 'root' has a negative load"));
  }
}

TEST(LintTaxonomy, ReportHelpersCountAndRank) {
  Report report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(Severity::info, report.worst());
  report.diagnostics.push_back(make_diagnostic(Code::solver_advisory, "", "advice"));
  report.diagnostics.push_back(make_diagnostic(Code::mutual_near_limit, "p", "warn"));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(Severity::warn, report.worst());
  EXPECT_EQ(1u, report.count(Severity::info));
  report.diagnostics.push_back(make_diagnostic(Code::zero_section, "p", "bad"));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(Severity::error, report.worst());
  ASSERT_NE(nullptr, report.find(Code::mutual_near_limit));
  EXPECT_EQ("p", report.find(Code::mutual_near_limit)->path);
  EXPECT_EQ(nullptr, report.find(Code::empty_net));
}

// ----------------------------------------------- connectivity: trigger+miss ---

net::Branch one_section_branch() {
  net::Branch root;
  root.sections.push_back({100.0, 1 * nh, 100 * ff, net::SectionKind::distributed});
  root.c_load = 20 * ff;
  return root;
}

TEST(LintConnectivity, EmptyNet) {
  EXPECT_TRUE(lint_branch(net::Branch{}).has(Code::empty_net));
  EXPECT_FALSE(lint_branch(one_section_branch()).has(Code::empty_net));
}

TEST(LintConnectivity, EmptyBranch) {
  net::Branch root = one_section_branch();
  root.children.emplace_back();  // no sections, children, or load
  const Report bad = lint_branch(root);
  ASSERT_TRUE(bad.has(Code::empty_branch));
  EXPECT_NE(std::string::npos, bad.find(Code::empty_branch)->path.find("'root/0'"));
  // Near-miss: a load-only stub is a legal receiver branch.
  root.children[0].c_load = 5 * ff;
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintConnectivity, ZeroSection) {
  net::Branch root = one_section_branch();
  root.sections.push_back({0.0, 0.0, 0.0, net::SectionKind::lumped});
  EXPECT_TRUE(lint_branch(root).has(Code::zero_section));
  // Near-miss: a lumped section carrying any one element is legal.
  root.sections.back().resistance = 1.0;
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintConnectivity, DuplicateProbe) {
  net::Branch root = one_section_branch();
  root.probe = "far";
  net::Branch child = one_section_branch();
  child.probe = "far";
  root.children.push_back(child);
  EXPECT_TRUE(lint_branch(root).has(Code::duplicate_probe));
  root.children[0].probe = "other";
  EXPECT_TRUE(lint_branch(root).clean());
}

// ------------------------------------------------ physicality: trigger+miss ---

TEST(LintPhysicality, NonfiniteValue) {
  net::Branch root = one_section_branch();
  root.sections[0].resistance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(lint_branch(root).has(Code::nonfinite_value));
  root.sections[0].resistance = 100.0;
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintPhysicality, NonpositiveResistance) {
  net::Branch root = one_section_branch();
  root.sections[0].resistance = 0.0;  // distributed R must be > 0
  EXPECT_TRUE(lint_branch(root).has(Code::nonpositive_resistance));
  // Near-miss: a lumped ideal-capacitor segment may carry R = 0.
  root.sections[0] = {0.0, 0.0, 100 * ff, net::SectionKind::lumped};
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintPhysicality, NonpositiveCapacitance) {
  net::Branch root = one_section_branch();
  root.sections[0].capacitance = 0.0;  // distributed C must be > 0
  EXPECT_TRUE(lint_branch(root).has(Code::nonpositive_capacitance));
  // Near-miss: a lumped RL segment may carry C = 0.
  root.sections[0] = {10.0, 1 * nh, 0.0, net::SectionKind::lumped};
  EXPECT_TRUE(lint_branch(root).clean());  // load still provides capacitance
}

TEST(LintPhysicality, NegativeInductance) {
  net::Branch root = one_section_branch();
  root.sections[0].inductance = -1 * nh;
  EXPECT_TRUE(lint_branch(root).has(Code::negative_inductance));
  root.sections[0].inductance = 0.0;  // an RC line is legal
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintPhysicality, NegativeLoad) {
  net::Branch root = one_section_branch();
  root.c_load = -20 * ff;
  EXPECT_TRUE(lint_branch(root).has(Code::negative_load));
  root.c_load = 0.0;  // loadless far end is legal
  EXPECT_TRUE(lint_branch(root).clean());
}

TEST(LintPhysicality, NoCapacitance) {
  net::Branch root;
  root.sections.push_back({10.0, 1 * nh, 0.0, net::SectionKind::lumped});
  EXPECT_TRUE(lint_branch(root).has(Code::no_capacitance));
  root.c_load = 20 * ff;
  EXPECT_TRUE(lint_branch(root).clean());
}

net::CoupledGroup two_line_group(double line_cap = 100 * ff) {
  net::CoupledGroup group;
  group.add_net(net::Net::uniform_line(100.0, 1 * nh, line_cap, 20 * ff), "a");
  group.add_net(net::Net::uniform_line(100.0, 1 * nh, line_cap, 20 * ff), "b");
  return group;
}

TEST(LintPhysicality, MutualOvercoupled) {
  net::CoupledGroup group = two_line_group();
  group.couple_inductance({0, 0}, {1, 0}, 0.6);
  try {
    group.couple_inductance({0, 0}, {1, 0}, 0.6);  // accumulates to 1.2
    FAIL() << "accumulated k >= 1 must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::mutual_overcoupled, e.code());
    EXPECT_NE(std::string::npos, std::string(e.what()).find("accumulates"));
  }
  // Near-miss: 0.9 accumulated stays legal and below the warn margin.
  net::CoupledGroup fine = two_line_group();
  fine.couple_inductance({0, 0}, {1, 0}, 0.5);
  fine.couple_inductance({0, 0}, {1, 0}, 0.4);
  const Report report = lint_group(fine);
  EXPECT_FALSE(report.has(Code::mutual_overcoupled));
  EXPECT_FALSE(report.has(Code::mutual_near_limit));
}

TEST(LintPhysicality, MutualNearLimit) {
  net::CoupledGroup group = two_line_group();
  group.couple_inductance({0, 0}, {1, 0}, 0.5);
  group.couple_inductance({0, 0}, {1, 0}, 0.47);  // 0.97: legal, near the wall
  const Report report = lint_group(group);
  ASSERT_TRUE(report.has(Code::mutual_near_limit));
  EXPECT_EQ(Severity::warn, report.find(Code::mutual_near_limit)->severity);
  EXPECT_TRUE(report.clean());  // warn-only: the group still simulates
}

TEST(LintPhysicality, CouplingDominatesGround) {
  net::CoupledGroup group = two_line_group();
  group.couple_capacitance({0, 0}, {1, 0}, 150 * ff);  // 1.5x the 100 fF ground C
  EXPECT_TRUE(lint_group(group).has(Code::coupling_dominates_ground));
  net::CoupledGroup fine = two_line_group();
  fine.couple_capacitance({0, 0}, {1, 0}, 50 * ff);
  EXPECT_FALSE(lint_group(fine).has(Code::coupling_dominates_ground));
}

// ----------------------------------------------- conditioning: trigger+miss ---

TEST(LintConditioning, SolverAdvisory) {
  const net::Net net = net::Net::uniform_line(100.0, 1 * nh, 100 * ff, 20 * ff);
  const Report on = lint_net(net);
  ASSERT_TRUE(on.has(Code::solver_advisory));
  const Diagnostic& d = *on.find(Code::solver_advisory);
  EXPECT_EQ(Severity::info, d.severity);
  EXPECT_NE(std::string::npos, d.message.find("unknowns"));
  EXPECT_NE(std::string::npos, d.message.find("solver"));
  Options off;
  off.conditioning = false;
  EXPECT_FALSE(lint_net(net, off).has(Code::solver_advisory));
}

TEST(LintConditioning, ExtremeStiffness) {
  std::vector<net::Section> sections = {
      {1000.0, 0.0, 1e-12, net::SectionKind::distributed},  // tau = 1e-9 s
      {0.1, 0.0, 1e-18, net::SectionKind::distributed},     // tau = 1e-19 s
  };
  const net::Net stiff = net::Net::multi_section(sections, 20 * ff);
  EXPECT_TRUE(lint_net(stiff).has(Code::extreme_stiffness));
  sections[1] = {10.0, 0.0, 1e-12, net::SectionKind::distributed};  // 100x spread
  const net::Net mild = net::Net::multi_section(sections, 20 * ff);
  EXPECT_FALSE(lint_net(mild).has(Code::extreme_stiffness));
}

TEST(LintConditioning, ExtremeDynamicRange) {
  // Spread the inductance only, so the RC stiffness screen stays quiet.
  std::vector<net::Section> sections = {
      {10.0, 1 * nh, 100 * ff, net::SectionKind::distributed},
      {10.0, 1e-20, 100 * ff, net::SectionKind::distributed},  // 1e11x under 1 nH
  };
  const net::Net wide = net::Net::multi_section(sections, 20 * ff);
  const Report report = lint_net(wide);
  EXPECT_TRUE(report.has(Code::extreme_dynamic_range));
  EXPECT_FALSE(report.has(Code::extreme_stiffness));
  sections[1].inductance = 0.1 * nh;
  const net::Net mild = net::Net::multi_section(sections, 20 * ff);
  EXPECT_FALSE(lint_net(mild).has(Code::extreme_dynamic_range));
}

// ------------------------------------------------------ model: trigger+miss ---

const tech::Technology& cmos180() {
  static const tech::Technology technology = tech::Technology::cmos180();
  return technology;
}

TEST(LintModel, InductanceScreenedOnRcNets) {
  // No root-to-leaf path carries both L and C: RC by construction.
  const net::Net rc = net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  const Report report = lint_net(rc);
  ASSERT_TRUE(report.has(Code::inductance_screened));
  EXPECT_EQ(Severity::info, report.find(Code::inductance_screened)->severity);
  EXPECT_FALSE(report.has(Code::inductance_significant));
}

TEST(LintModel, Eq9SeparatesSignificantFromScreened) {
  // Table 1's 5 mm / 1.6 um line behind a 100X driver: the paper's flagship
  // inductive case — all four Eq 9 screens hold.
  const tech::WireModel wires;
  const net::Net line = tech::line_net(wires.extract({5.0 * mm, 1.6 * um}), 20 * ff);
  Options fast;
  fast.driver_resistance = estimate_driver_resistance(cmos180(), 100.0);
  fast.input_slew = 100 * ps;
  ASSERT_GT(fast.driver_resistance, 0.0);
  const Report significant = lint_net(line, fast);
  EXPECT_TRUE(significant.has(Code::inductance_significant));
  EXPECT_FALSE(significant.has(Code::inductance_screened));

  // Near-miss: the same wire model on a short narrow line behind a weak 25X
  // driver fails the driver-fast screen — inductance screened out.
  const net::Net short_line =
      tech::line_net(wires.extract({2.0 * mm, 0.8 * um}), 20 * ff);
  Options weak;
  weak.driver_resistance = estimate_driver_resistance(cmos180(), 25.0);
  weak.input_slew = 100 * ps;
  const Report screened = lint_net(short_line, weak);
  EXPECT_TRUE(screened.has(Code::inductance_screened));
  EXPECT_FALSE(screened.has(Code::inductance_significant));
}

TEST(LintModel, MomentMismatchGatedByTolerance) {
  const net::Net net = net::Net::uniform_line(100.0, 1 * nh, 100 * ff, 20 * ff);
  // The identity m1 == Ctotal holds to roundoff on every valid net.
  EXPECT_FALSE(lint_net(net).has(Code::moment_mismatch));
  // A negative tolerance turns any roundoff into a finding — the emission
  // path and message for the day an extraction bug breaks the identity.
  Options strict;
  strict.moment_rel_tol = -1.0;
  const Report report = lint_net(net, strict);
  ASSERT_TRUE(report.has(Code::moment_mismatch));
  EXPECT_EQ(Severity::error, report.find(Code::moment_mismatch)->severity);
}

TEST(LintModel, MillerUnsafe) {
  net::CoupledGroup group = two_line_group();  // 120 fF total per net
  group.couple_capacitance({0, 0}, {1, 0}, 80 * ff);  // > 0.5 x total
  const Report report = lint_group(group);
  ASSERT_TRUE(report.has(Code::miller_unsafe));
  EXPECT_EQ(Severity::warn, report.find(Code::miller_unsafe)->severity);
  net::CoupledGroup fine = two_line_group();
  fine.couple_capacitance({0, 0}, {1, 0}, 40 * ff);
  EXPECT_FALSE(lint_group(fine).has(Code::miller_unsafe));
}

TEST(LintModel, ConvergenceRiskNearRegimeBoundary) {
  // Tr1 = 100 ps against 2*tf = 98 ps: within the default 10% margin.
  const net::Net net = net::Net::uniform_line(120.0, 4 * nh, 600 * ff, 20 * ff);
  Options at_boundary;
  at_boundary.driver_resistance = estimate_driver_resistance(cmos180(), 75.0);
  at_boundary.input_slew = 100 * ps;
  const Report risky = lint_net(net, at_boundary);
  ASSERT_TRUE(risky.has(Code::convergence_risk));
  EXPECT_NE(std::string::npos,
            risky.find(Code::convergence_risk)->message.find("Tr1/2tf"));
  // Near-miss: a 3x slower ramp sits far from every boundary.
  Options away;
  away.driver_resistance = at_boundary.driver_resistance;
  away.input_slew = 300 * ps;
  EXPECT_FALSE(lint_net(net, away).has(Code::convergence_risk));
}

// -------------------------------------------------------------------- tier ---

TEST(LintTier, NetPredictionNamesTheRoutedTier) {
  // A pure-RC line is admitted to Tier A; Table 1's 5 mm / 1.6 um line behind
  // 100X trips Eq 9 and routes to Tier B.
  const tech::WireModel wires;
  const net::Net line = tech::line_net(wires.extract({5.0 * mm, 1.6 * um}), 20 * ff);
  const net::Net rc = net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  Options options;
  options.driver_resistance = estimate_driver_resistance(cmos180(), 100.0);
  options.input_slew = 100 * ps;
  EXPECT_FALSE(lint_net(rc, options).has(Code::tier_advisory));  // reference: no cascade

  options.tier_policy = tier::TierPolicy::fastest;
  const Report easy = lint_net(rc, options);
  ASSERT_TRUE(easy.has(Code::tier_advisory));
  EXPECT_EQ(Severity::info, easy.find(Code::tier_advisory)->severity);
  EXPECT_NE(std::string::npos,
            easy.find(Code::tier_advisory)->message.find("tier a (analytical)"));
  const Report inductive = lint_net(line, options);
  ASSERT_TRUE(inductive.has(Code::tier_advisory));
  const std::string& message = inductive.find(Code::tier_advisory)->message;
  EXPECT_NE(std::string::npos, message.find("tier b (ceff)"));
  EXPECT_NE(std::string::npos, message.find("inductance_significant"));
  EXPECT_FALSE(inductive.has(Code::tier_pinned_mismatch));
}

TEST(LintTier, PinnedTierTheScreenRefusesWarns) {
  const tech::WireModel wires;
  const net::Net line = tech::line_net(wires.extract({5.0 * mm, 1.6 * um}), 20 * ff);
  const net::Net rc = net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff);
  Options pinned;
  pinned.driver_resistance = estimate_driver_resistance(cmos180(), 100.0);
  pinned.input_slew = 100 * ps;
  pinned.tier_policy = tier::TierPolicy::force_analytical;
  const Report report = lint_net(line, pinned);
  ASSERT_TRUE(report.has(Code::tier_pinned_mismatch));
  EXPECT_EQ(Severity::warn, report.find(Code::tier_pinned_mismatch)->severity);
  EXPECT_TRUE(report.has(Code::tier_advisory));
  // Near-miss: the same pin on a net the screen admits.
  const Report fine = lint_net(rc, pinned);
  EXPECT_TRUE(fine.has(Code::tier_advisory));
  EXPECT_FALSE(fine.has(Code::tier_pinned_mismatch));
}

TEST(LintTier, GroupPredictsNoTier) {
  // Tier A serves a coupled victim's Miller-decoupled net, which only the
  // request's aggressors define, so no member carries a prediction — not
  // even the inductive line a pinned Tier A would refuse on its own.  The
  // driver context is the victim's, so no member gets an Eq 9 verdict from
  // it either; the driver-free "no L-C path" screen still runs.
  const tech::WireModel wires;
  net::CoupledGroup group;
  group.add_net(net::Net::uniform_line(100.0, 0.0, 200 * ff, 20 * ff), "victim");
  group.add_net(tech::line_net(wires.extract({5.0 * mm, 1.6 * um}), 20 * ff), "aggr");
  group.couple_capacitance({0, 0}, {1, 0}, 20 * ff);
  for (tier::TierPolicy policy :
       {tier::TierPolicy::fastest, tier::TierPolicy::force_analytical}) {
    Options options;
    options.driver_resistance = estimate_driver_resistance(cmos180(), 100.0);
    options.input_slew = 100 * ps;
    options.tier_policy = policy;
    const Report report = lint_group(group, options);
    EXPECT_FALSE(report.has(Code::tier_advisory)) << tier::to_string(policy);
    EXPECT_FALSE(report.has(Code::tier_pinned_mismatch)) << tier::to_string(policy);
    EXPECT_FALSE(report.has(Code::inductance_significant)) << tier::to_string(policy);
    EXPECT_FALSE(report.has(Code::convergence_risk)) << tier::to_string(policy);
    const Diagnostic* rc = report.find(Code::inductance_screened);
    ASSERT_NE(nullptr, rc) << tier::to_string(policy);
    EXPECT_EQ("net 'victim'", rc->path);
  }
}

// --------------------------- consolidated construction-time validation ---

TEST(LintConstruction, NetConstructionThrowsDiagnosticError) {
  net::Branch root = one_section_branch();
  root.sections[0].capacitance = -100 * ff;
  try {
    net::Net net{std::move(root)};
    FAIL() << "negative capacitance must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::nonpositive_capacitance, e.code());
    EXPECT_NE(std::string::npos,
              std::string(e.what()).find("section 0 of branch 'root'"));
  }
}

TEST(LintConstruction, NetlistElementChecksThrowDiagnosticError) {
  ckt::Netlist netlist;
  const ckt::NodeId n1 = netlist.node("n1");
  try {
    netlist.add_resistor(ckt::ground, n1, -5.0);
    FAIL() << "negative resistance must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::nonpositive_resistance, e.code());
  }
  try {
    netlist.add_inductor(ckt::ground, n1, -1 * nh);
    FAIL() << "negative inductance must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::negative_inductance, e.code());
  }
  try {
    netlist.add_capacitor(ckt::ground, n1, -1 * ff);
    FAIL() << "negative capacitance must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::nonpositive_capacitance, e.code());
  }
}

TEST(LintConstruction, CoupledGroupChecksThrowDiagnosticError) {
  net::CoupledGroup group = two_line_group();
  try {
    group.couple_capacitance({0, 0}, {1, 0}, -10 * ff);
    FAIL() << "negative coupling capacitance must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::nonpositive_capacitance, e.code());
  }
  try {
    group.couple_inductance({0, 0}, {1, 0}, 1.5);
    FAIL() << "k outside (0, 1) must be refused";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(Code::mutual_overcoupled, e.code());
  }
}

// A well-formed single net, compiled for the conditioning pass, lints
// clean and reports no connectivity findings at all.
TEST(LintNetlist, CompiledNetDeckIsClean) {
  const net::Net net = net::Net::uniform_line(100.0, 1 * nh, 100 * ff, 20 * ff);
  const Report report = lint_net(net);
  EXPECT_TRUE(report.clean());
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_STRNE("connectivity", family(d.code)) << format(d);
  }
}

}  // namespace
}  // namespace rlceff::lint
