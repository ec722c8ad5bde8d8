#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "circuit/builders.h"
#include "circuit/mna.h"
#include "circuit/mosfet.h"
#include "circuit/netlist.h"
#include "core/criteria.h"
#include "moments/admittance.h"
#include "sim/transient.h"
#include "tech/technology.h"
#include "tier/router.h"

namespace rlceff::lint {

namespace {

// Finding thresholds.
constexpr double kMutualMargin = 0.05;        // warn when accumulated k > 1 - margin
constexpr double kCouplingRatioWarn = 1.0;    // a section's coupling C over its ground C
constexpr double kStiffnessWarn = 1e8;        // max/min section RC time-constant ratio
constexpr double kDynamicRangeWarn = 1e9;     // max/min per-unit element-value ratio
constexpr double kMillerCouplingRatio = 0.5;  // coupling / total C bound for Miller
constexpr double kRegimeMargin = 0.10;        // convergence-risk band around the Eq 9
                                              // boundaries (relative)
constexpr std::size_t kAdvisorySegments = 120;  // per section of the advisory deck
                                                // (tech::DeckOptions default)

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Visits every section depth-first: a branch's own sections near to far,
// then its children's.
template <class Fn>
void for_each_section(const net::Branch& branch, Fn& fn) {
  for (const net::Section& s : branch.sections) fn(s);
  for (const net::Branch& child : branch.children) for_each_section(child, fn);
}

void collect_sections(const net::Branch& branch, std::vector<net::Section>& out) {
  auto append = [&out](const net::Section& s) { out.push_back(s); };
  for_each_section(branch, append);
}

void collect_loads(const net::Branch& branch, std::vector<double>& out) {
  if (branch.c_load > 0.0) out.push_back(branch.c_load);
  for (const net::Branch& child : branch.children) collect_loads(child, out);
}

// ---------------------------------------------------------- conditioning ---

// max/min ratio over the positive values of one element quantity.
double value_range(const std::vector<double>& values) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (double v : values) {
    if (v <= 0.0) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi > 0.0 && std::isfinite(lo) ? hi / lo : 1.0;
}

void check_value_spread(const std::vector<net::Section>& sections,
                        const std::vector<double>& loads, std::vector<Diagnostic>& out) {
  // Stiffness: the spread of per-section RC time constants bounds the spread
  // of eigenvalues a fixed-step integrator must straddle.
  std::vector<double> taus;
  for (const net::Section& s : sections) {
    if (s.resistance > 0.0 && s.capacitance > 0.0) {
      taus.push_back(s.resistance * s.capacitance);
    }
  }
  const double stiffness = value_range(taus);
  if (stiffness > kStiffnessWarn) {
    out.push_back(make_diagnostic(
        Code::extreme_stiffness, "",
        "section RC time constants span a " + fmt(stiffness) +
            "x ratio (warn threshold " + fmt(kStiffnessWarn) + "x)",
        "a fixed step resolving the fastest section crawls through the "
        "slowest; consider splitting the net or relaxing the step"));
  }
  // Dynamic range per unit: a wide spread within one element kind is what
  // pushes LU pivots toward the threshold, not the ohm-vs-farad scale gap
  // (the MNA scaling absorbs that).
  std::vector<double> rs, ls, cs;
  for (const net::Section& s : sections) {
    rs.push_back(s.resistance);
    ls.push_back(s.inductance);
    cs.push_back(s.capacitance);
  }
  cs.insert(cs.end(), loads.begin(), loads.end());
  const double spread =
      std::max({value_range(rs), value_range(ls), value_range(cs)});
  if (spread > kDynamicRangeWarn) {
    out.push_back(make_diagnostic(
        Code::extreme_dynamic_range, "",
        "element values span a " + fmt(spread) + "x ratio (warn threshold " +
            fmt(kDynamicRangeWarn) + "x)",
        "values this far apart risk pivot-threshold trouble in the LU; check "
        "the extraction for unit mistakes"));
  }
}

void advisory_for(const ckt::Netlist& netlist, std::vector<Diagnostic>& out) {
  const ckt::MnaStructure structure(netlist);
  if (structure.unknown_count() == 0) return;
  const sim::SolverKind kind = sim::selected_solver(netlist);
  out.push_back(make_diagnostic(
      Code::solver_advisory, "",
      "predicted deck: " + std::to_string(structure.unknown_count()) +
          " unknowns, RCM half-bandwidth " + std::to_string(structure.bandwidth()) +
          ", " + std::to_string(structure.pattern_nonzeros()) +
          " pattern nonzeros -> " + sim::to_string(kind) + " solver"));
}

void check_net_conditioning(const net::Net& net, std::vector<Diagnostic>& out) {
  ckt::Netlist netlist;
  const ckt::NodeId in = netlist.node("in");
  (void)ckt::append_net(netlist, in, net, kAdvisorySegments);
  advisory_for(netlist, out);
}

// ----------------------------------------------------------------- model ---

struct RegimeRatio {
  const char* name;
  double ratio;  // boundary sits at 1
};

void check_net_model(const net::Net& net, const Options& options,
                     std::vector<Diagnostic>& out) {
  // m1 == Ctotal: the first driving-point moment of any RLC load is its total
  // capacitance; disagreement means the moment expansion and the topology
  // walk see different nets (an extraction/IR bug, never a regime matter).
  const util::Series admittance = moments::net_admittance(net, 3);
  const double m1 = admittance[1];
  const double ctotal = net.total_capacitance();
  if (std::abs(m1 - ctotal) > options.moment_rel_tol * std::max(ctotal, 1e-21)) {
    out.push_back(make_diagnostic(
        Code::moment_mismatch, "",
        "driving-point moment m1 = " + fmt(m1) + " F disagrees with the total "
            "capacitance " + fmt(ctotal) + " F",
        "the moment expansion and the branch walk disagree about this net; "
        "re-extract it"));
  }

  net::NetMetrics metrics;
  try {
    metrics = net.metrics();
  } catch (const Error&) {
    // No root-to-leaf path carries both L and C: the net is RC by
    // construction and the paper's single-Ceff flow applies directly.
    out.push_back(make_diagnostic(
        Code::inductance_screened, "",
        "no root-to-leaf path carries both inductance and capacitance; the "
        "net is RC and one effective capacitance suffices"));
    return;
  }

  if (!(options.driver_resistance > 0.0 && options.input_slew > 0.0)) return;

  const double rs = options.driver_resistance;
  const double tr1 = options.input_slew;  // static proxy for the first ramp
  const core::InductanceCriteria criteria = core::evaluate_criteria(metrics, rs, tr1);

  if (criteria.significant()) {
    out.push_back(make_diagnostic(
        Code::inductance_significant, "",
        "all four Eq 9 screens hold (load small, line low-loss, driver fast, "
        "ramp beats flight); transmission-line effects matter and the "
        "two-ramp RLC model applies"));
  } else {
    std::string failed;
    if (!criteria.load_small) failed += " load-dominated;";
    if (!criteria.line_low_loss) failed += " line too lossy;";
    if (!criteria.driver_fast) failed += " driver too weak;";
    if (!criteria.ramp_beats_flight) failed += " ramp slower than flight;";
    failed.pop_back();
    out.push_back(make_diagnostic(
        Code::inductance_screened, "",
        "Eq 9 screens out inductance (" + failed.substr(1) +
            "); RC modeling with one effective capacitance suffices"));
  }

  // Convergence risk: a net sitting within margin of a regime boundary can
  // flip between the one-ramp and two-ramp models across Ceff iterations —
  // the pattern behind slow fixed-point convergence.
  const RegimeRatio ratios[] = {
      {"load/line-capacitance",
       metrics.wire_capacitance > 0.0
           ? metrics.path_load /
                 (core::load_cap_ratio_max * metrics.wire_capacitance)
           : 0.0},
      {"loss/2Z0", metrics.path_resistance / (2.0 * metrics.z0)},
      {"Rs/Z0", rs / metrics.z0},
      {"Tr1/2tf", tr1 / (2.0 * metrics.time_of_flight)},
  };
  std::string risky;
  for (const RegimeRatio& r : ratios) {
    if (std::abs(r.ratio - 1.0) <= kRegimeMargin) {
      risky += std::string(risky.empty() ? "" : ", ") + r.name + " = " +
               fmt(r.ratio);
    }
  }
  if (!risky.empty()) {
    out.push_back(make_diagnostic(
        Code::convergence_risk, "",
        "within " + fmt(100.0 * kRegimeMargin) +
            "% of an Eq 9 regime boundary (" + risky +
            "); the Ceff fixed point may converge slowly",
        "expect extra iterations or pin the model with force_one_ramp/"
        "force_two_ramp"));
  }
}

// ------------------------------------------------------------------ tier ---

// Predicts the tier the multi-fidelity cascade would route this net to under
// the caller's policy — the static (table-free) version of the router's
// screen on Tier A's own load model, with the input slew standing in for the
// driver output transition.  A forced tier the screen would refuse is a
// warning: the pin will be honored, but the calibrated envelope for that
// tier no longer covers the result.
void check_net_tier(const net::Net& net, const Options& options,
                    std::vector<Diagnostic>& out) {
  using tier::TierPolicy;
  if (options.tier_policy == TierPolicy::reference) return;
  const tier::Admission admission = tier::admit_analytical_static(
      net, options.driver_resistance, options.input_slew);
  const tier::Tier predicted = tier::route(options.tier_policy, admission, false);
  std::string message = std::string("policy ") + tier::to_string(options.tier_policy) +
                        " routes this net to tier " + tier::tier_letter(predicted) +
                        " (" + tier::to_string(predicted) + ")";
  if (!admission.ok) {
    message += std::string("; the tier A screen refuses it: ") + admission.reason;
  }
  out.push_back(make_diagnostic(Code::tier_advisory, "", std::move(message)));
  if (!admission.ok && options.tier_policy == TierPolicy::force_analytical) {
    out.push_back(make_diagnostic(
        Code::tier_pinned_mismatch, "",
        std::string("the request pins tier A (force_analytical) but the static "
                    "screen disqualifies this topology: ") +
            admission.reason,
        "let TierPolicy::balanced escalate, or pin tier B (force_ceff)"));
  }
}

bool has_error(const std::vector<Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(), [](const Diagnostic& d) {
    return d.severity == Severity::error;
  });
}

}  // namespace

bool Report::has(Code code) const { return find(code) != nullptr; }

const Diagnostic* Report::find(Code code) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::size_t Report::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.severity == severity; }));
}

Severity Report::worst() const {
  Severity w = Severity::info;
  for (const Diagnostic& d : diagnostics) w = std::max(w, d.severity);
  return w;
}

Report lint_branch(const net::Branch& root) {
  Report report;
  check_branch_tree(root, report.diagnostics);
  return report;
}

Report lint_net(const net::Net& net, const Options& options) {
  Report report;
  if (net.empty()) {
    report.diagnostics.push_back(
        make_diagnostic(Code::empty_net, "", "empty net (no sections and no branches)",
                        "a net needs at least one wire section"));
    return report;
  }
  check_branch_tree(net.root(), report.diagnostics);
  if (has_error(report.diagnostics)) return report;

  if (options.conditioning) {
    std::vector<net::Section> sections;
    std::vector<double> loads;
    collect_sections(net.root(), sections);
    collect_loads(net.root(), loads);
    check_value_spread(sections, loads, report.diagnostics);
    check_net_conditioning(net, report.diagnostics);
  }
  if (options.model) {
    check_net_model(net, options, report.diagnostics);
    check_net_tier(net, options, report.diagnostics);
  }
  return report;
}

Report lint_group(const net::CoupledGroup& group, const Options& options) {
  Report report;
  if (group.empty()) {
    report.diagnostics.push_back(make_diagnostic(
        Code::empty_net, "", "empty coupled group (no nets)",
        "add at least one net before linting or simulating the group"));
    return report;
  }

  // Member nets first, with a "net 'label'" path prefix; the group-level
  // conditioning pass below replaces the per-net one.  No driver context and
  // so no Eq 9 screen, convergence risk or tier prediction: a group has no
  // per-member driver (the options carry the victim's Rs and slew), and
  // Tier A/B serve the victim's Miller-decoupled net, which depends on the
  // request's aggressors — a member is not the net they serve.  The
  // driver-free "no L-C path" screen still runs.
  Options member = options;
  member.conditioning = false;
  member.driver_resistance = 0.0;
  member.input_slew = 0.0;
  member.tier_policy = tier::TierPolicy::reference;
  for (std::size_t k = 0; k < group.size(); ++k) {
    Report sub = lint_net(group.net_at(k), member);
    for (Diagnostic& d : sub.diagnostics) {
      const std::string prefix = "net '" + group.label_at(k) + "'";
      d.path = d.path.empty() ? prefix : prefix + ", " + d.path;
      report.diagnostics.push_back(std::move(d));
    }
  }

  // Coupling physicality: accumulated k per section pair must stay clear of
  // the |M| = sqrt(La*Lb) passivity wall, not just below it.
  auto pair_name = [&](const net::SectionRef& a, const net::SectionRef& b) {
    return "mutual inductance between '" + group.label_at(a.net) + "' section " +
           std::to_string(a.section) + " and '" + group.label_at(b.net) +
           "' section " + std::to_string(b.section);
  };
  using PairKey = std::pair<std::pair<std::size_t, std::size_t>,
                            std::pair<std::size_t, std::size_t>>;
  std::map<PairKey, double> total_k;
  std::map<PairKey, std::pair<net::SectionRef, net::SectionRef>> pair_refs;
  for (const net::MutualCoupling& m : group.mutual_couplings()) {
    std::pair<std::size_t, std::size_t> ka{m.a.net, m.a.section};
    std::pair<std::size_t, std::size_t> kb{m.b.net, m.b.section};
    const PairKey key = ka < kb ? PairKey{ka, kb} : PairKey{kb, ka};
    total_k[key] += m.k;
    pair_refs.emplace(key, std::make_pair(m.a, m.b));
  }
  for (const auto& [key, total] : total_k) {
    const auto& [a, b] = pair_refs.at(key);
    if (total >= 1.0) {
      report.diagnostics.push_back(make_diagnostic(
          Code::mutual_overcoupled, pair_name(a, b),
          "accumulates to coupling coefficient " + fmt(total) +
              " >= 1 (non-passive)",
          "|M| must stay below sqrt(La*Lb); reduce k or split the span"));
    } else if (total > 1.0 - kMutualMargin) {
      report.diagnostics.push_back(make_diagnostic(
          Code::mutual_near_limit, pair_name(a, b),
          "accumulates to coupling coefficient " + fmt(total) + ", within " +
              fmt(kMutualMargin) + " of the passivity limit 1",
          "near-singular inductance matrices condition poorly; re-check the "
          "extracted k"));
    }
  }

  // Coupling caps vs the ground capacitance of the section they load.  A
  // group carries a handful of coupling caps, so each section sums its own
  // by a scan (in cap order, a side before b side) instead of staging
  // per-net arrays.
  for (std::size_t n = 0; n < group.size(); ++n) {
    std::size_t s = 0;
    auto screen_section = [&](const net::Section& section) {
      const double ground = section.capacitance;
      double coupled = 0.0;
      for (const net::CouplingCap& cc : group.coupling_caps()) {
        for (const net::SectionRef& r : {cc.a, cc.b}) {
          if (r.net == n && r.section == s) coupled += cc.capacitance;
        }
      }
      if (ground > 0.0 && coupled > kCouplingRatioWarn * ground) {
        report.diagnostics.push_back(make_diagnostic(
            Code::coupling_dominates_ground,
            "'" + group.label_at(n) + "' section " + std::to_string(s),
            "carries " + fmt(coupled) + " F of coupling capacitance against " +
                fmt(ground) + " F to ground",
            "crosstalk will dominate this span's response; expect strong "
            "aggressor sensitivity"));
      }
      ++s;
    };
    for_each_section(group.net_at(n).root(), screen_section);
  }

  if (has_error(report.diagnostics)) return report;

  // Miller applicability: the decoupled single-net model replaces coupling
  // caps with Miller-scaled grounded caps, which tracks the coupled system
  // only while coupling stays a modest share of the victim's total load.
  if (options.model) {
    for (std::size_t k = 0; k < group.size(); ++k) {
      const double coupling = group.coupling_capacitance_at(k);
      const double total = group.net_at(k).total_capacitance();
      if (total > 0.0 && coupling > kMillerCouplingRatio * total) {
        report.diagnostics.push_back(make_diagnostic(
            Code::miller_unsafe, "net '" + group.label_at(k) + "'",
            "coupling capacitance " + fmt(coupling) + " F exceeds " +
                fmt(kMillerCouplingRatio) + "x of its " + fmt(total) +
                " F total; Miller decoupling loses accuracy here",
            "validate this victim against the full coupled simulation "
            "(reference mode) before trusting the decoupled model"));
      }
    }
  }

  if (options.conditioning) {
    std::vector<net::Section> all_sections;
    std::vector<double> all_loads;
    for (std::size_t k = 0; k < group.size(); ++k) {
      collect_sections(group.net_at(k).root(), all_sections);
      collect_loads(group.net_at(k).root(), all_loads);
    }
    check_value_spread(all_sections, all_loads, report.diagnostics);

    ckt::Netlist netlist;
    std::vector<ckt::NodeId> from;
    from.reserve(group.size());
    for (std::size_t k = 0; k < group.size(); ++k) {
      from.push_back(netlist.node("in_" + group.label_at(k)));
    }
    (void)ckt::append_coupled_group(netlist, from, group, kAdvisorySegments);
    advisory_for(netlist, report.diagnostics);
  }
  return report;
}

double estimate_driver_resistance(const tech::Technology& technology,
                                  double cell_size) {
  if (!(cell_size > 0.0)) return 0.0;
  const double width = cell_size * technology.w_unit;
  const double idsat =
      ckt::eval_nmos(technology.nmos, width, technology.vdd, technology.vdd).id;
  return idsat > 0.0 ? technology.vdd / (2.0 * idsat) : 0.0;
}

}  // namespace rlceff::lint
