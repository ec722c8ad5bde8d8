// The tier router: applicability predicates deciding which tier serves a
// request.
//
// Routing is conservative by construction — the cheap tier must *prove* it
// applies, otherwise the request escalates:
//
//   Tier A is refused when
//     * the Eq 9 inductance criteria hold (transmission-line response needs
//       the two-ramp flow; a single shielded capacitance misses the plateau),
//     * the closed form throws (an Eq 3 fit with an unstable pole, a
//       degenerate net): "estimate_failed",
//     * shielding is deep (Ceff / Ctotal below 0.05: when almost the
//       whole load hides behind the shield, the screen's pure table read
//       drifts from the simulated near-end waveform that defines Tier B;
//       the floor is low because the screen shares Tier B's 5-moment charge
//       model and tracks it well into heavy shielding),
//     * a coupled victim's coupling fraction Cc / (Cc + Cg) exceeds 0.4
//       (Miller decoupling error grows with it).
//       Mutual inductance alone does not refuse: Tier A and Tier B model the
//       same Miller-decoupled victim and both drop the mutual terms, so the
//       escalation would buy nothing (see admit_group_analytical).
//
//   Tier B escalates to Tier C when its Ceff fixed point cannot converge
//   (api::Engine catches the convergence failure under TierPolicy::balanced).
//
// admit_analytical screens a computed estimate (the engine path);
// admit_analytical_static screens from the topology plus the caller's driver
// context alone — no cell tables — using the input slew as the transition
// proxy.  It is lint's tier prediction (lint::Options::tier_policy), run
// before any solve exists.  Both return through one predicate list, and the
// static screen reads shielding off Tier A's own load model
// (tier::analytical_load); lacking the cell tables, it takes the input slew
// and an estimated Rs where the served screen has the converged ramp and
// the table's Rs.
#ifndef RLCEFF_TIER_ROUTER_H
#define RLCEFF_TIER_ROUTER_H

#include <cstddef>

#include "tier/analytical.h"
#include "tier/tier.h"

namespace rlceff::net {
class CoupledGroup;
}

namespace rlceff::tier {

struct Admission {
  bool ok = true;
  // "" when admitted; otherwise a stable tag naming the failed predicate:
  // "inductance_significant", "deep_shielding", "fixed_point_stalled",
  // "coupling_heavy", or "estimate_failed" when the closed form itself
  // throws (the engine's screen and the static one alike).
  const char* reason = "";
};

// Tier A screen on a computed estimate (single-net part; coupled requests
// additionally pass the group screen below for the victim).
Admission admit_analytical(const AnalyticalEstimate& estimate);

// The coupled-group part of the Tier A screen for one victim.
Admission admit_group_analytical(const net::CoupledGroup& group, std::size_t victim);

// Table-free screen for static analysis: the single-net predicates above,
// in the same order, with the input slew standing in for the driver output
// transition (rs likewise an estimate, e.g.
// lint::estimate_driver_resistance).  Eq 9 comes first; then shielding is
// core::ceff_single on tier::analytical_load over the input slew, and a load
// model that throws refuses with "estimate_failed".  No fixed point runs, so
// "fixed_point_stalled" never appears.  Pass driver_resistance <= 0 to skip
// the criteria predicate (no driver context), input_slew <= 0 to skip both.
Admission admit_analytical_static(const net::Net& net, double driver_resistance,
                                  double input_slew);

// The tier a policy routes to given the Tier A admission verdict.  Balanced
// and fastest take analytical when admitted and ceff otherwise (balanced's
// further ceff -> reference escalation is a runtime event, not a routing
// decision); forced policies ignore the admission.  TierPolicy::reference
// maps to ceff / reference by the request's own reference flag — pass it.
Tier route(TierPolicy policy, const Admission& admission, bool request_reference);

}  // namespace rlceff::tier

#endif  // RLCEFF_TIER_ROUTER_H
