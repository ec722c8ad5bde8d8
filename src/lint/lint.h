// Static analysis over nets and coupled groups — every check the stack can
// run before (instead of) a single transient solve.
//
// Four check families (see diagnostic.h for the code taxonomy):
//   * connectivity / physicality — the structural core (structural.h): a
//     pure branch-tree walk costing nanoseconds per net.  This is the only
//     part the Engine admission screen runs, which is what keeps screening a
//     batch under 1% of its model-only runtime.
//   * conditioning — opt-in: compiles the net into a pattern-only deck (120
//     segments per section, the tech::DeckOptions default) and reports the
//     unknown count, RCM half-bandwidth, pattern nonzeros, and the
//     solver-selection heuristic's verdict (sim::selected_solver), plus
//     RC-stiffness and element-dynamic-range screens.
//   * model — opt-in: the paper's Eq 9 inductance-screening criteria from
//     NetMetrics (with a static driver-resistance / input-slew proxy for the
//     Rs / Tr1 terms), the m1 == Ctotal driving-point-moment consistency
//     check, Miller-decoupling applicability, and convergence-risk flags for
//     nets sitting within margin of a regime boundary.
// lint_* functions never simulate and never throw on findings — a broken
// net yields error diagnostics, not exceptions.
#ifndef RLCEFF_LINT_LINT_H
#define RLCEFF_LINT_LINT_H

#include <vector>

#include "lint/diagnostic.h"
#include "lint/structural.h"
#include "net/coupled.h"
#include "net/net.h"
#include "tier/tier.h"

namespace rlceff::tech {
struct Technology;
}

namespace rlceff::lint {

struct Options {
  // Pass selection.  The structural (connectivity + physicality) core is
  // always on; these enable the deeper passes that compile decks / expand
  // moments and therefore cost microseconds instead of nanoseconds.
  bool conditioning = true;
  bool model = true;

  // model
  double moment_rel_tol = 1e-6;        // m1 vs Ctotal relative tolerance

  // Driver context for the Eq 9 screen.  Zero skips the screen (the lint
  // pass has no driver to reason about).  The Engine and CLI fill these from
  // the request: rs from estimate_driver_resistance, tr1 from the input slew
  // — a static proxy for the converged first-ramp time the dynamic flow
  // iterates to (documented admission-time approximation).  lint_net only:
  // lint_group judges its members without it (see there).
  double driver_resistance = 0.0;  // Thevenin estimate [ohm]
  double input_slew = 0.0;         // Tr1 proxy [s]

  // Tier routing prediction (model pass, needs the driver context above),
  // lint_net only: emits tier_advisory with the tier the static screen
  // (tier::admit_analytical_static) predicts the cascade would route this
  // net to under `tier_policy`, and tier_pinned_mismatch when a forced
  // policy pins a tier the screen would refuse.  The default policy
  // (reference) skips the prediction — no cascade, nothing to predict.
  // lint_group predicts nothing: Tier A serves a coupled victim's
  // Miller-decoupled net, which only the request's aggressors define.
  tier::TierPolicy tier_policy = tier::TierPolicy::reference;
};

struct Report {
  std::vector<Diagnostic> diagnostics;

  bool has(Code code) const;
  const Diagnostic* find(Code code) const;
  std::size_t count(Severity severity) const;
  // No error-severity findings (warn/info may be present).
  bool clean() const { return count(Severity::error) == 0; }
  // info when empty.
  Severity worst() const;
};

// Lints a raw branch tree (structural core only; the tree may be one
// net::Net would refuse to construct — this is what the mutation oracles
// lint).
Report lint_branch(const net::Branch& root);

// Full per-net analysis.  The deeper passes run only when the structural
// core found no errors (metrics/moments on a broken net are meaningless).
Report lint_net(const net::Net& net, const Options& options = {});

// Group analysis: every member net is linted (paths gain a "net 'label'"
// prefix) without the driver context — the options' Rs and slew belong to
// the victim's driver, and a group has none per member — so members get no
// Eq 9 screen, convergence risk or tier prediction, only the driver-free
// "no L-C path" screen.  Then the coupling elements are screened
// (accumulated k vs 1, coupling-vs-ground capacitance, Miller
// applicability) and the coupled deck's conditioning is predicted.
Report lint_group(const net::CoupledGroup& group, const Options& options = {});

// Static Thevenin resistance of a size-X inverter driver: vdd / (2 Idsat)
// with Idsat from the alpha-power NMOS at vgs = vds = vdd.  The admission
// screen's stand-in for the dynamically extracted Rs.
double estimate_driver_resistance(const tech::Technology& technology,
                                  double cell_size);

}  // namespace rlceff::lint

#endif  // RLCEFF_LINT_LINT_H
