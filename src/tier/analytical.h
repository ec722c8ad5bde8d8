// Tier A: the closed-form analytical screen.
//
// The million-net common case is an RC-dominated net whose delay and slew a
// static timing engine can read straight off the cell tables — provided the
// load it looks up is the *shielded* effective capacitance, not the raw
// total.  This tier computes that estimate without the full model flow (no
// Series cascade, no waveform synthesis, no crossing search):
//
//   1. the first five driving-point admittance moments come from the
//      flattened lumped-ladder walk (moments::fast_net_admittance, two array
//      sweeps per order) and feed the same Eq 3 rational fit and closed-form
//      charge model the Ceff flow uses — so Tier A's shielded capacitances
//      sit on top of Tier B's by construction,
//   2. a secant fixed point (run at a loose table-level tolerance) converges
//      Ceff over the same windows the Ceff flow uses, with the same model
//      selection in the same order: nets with a flight time solve the Eq 1
//      breakpoint window f = Z0/(Z0+Rs) first and evaluate the Eq 9 criteria
//      at that converged ramp time; unless the criteria fire, the estimate
//      falls back to one Ceff over the whole transition (core::ceff_single),
//      which is also where pure-RC nets start,
//   3. delay is the table value at Ceff1; for f < 1/2 the 50 % crossing sits
//      on the second ramp, so the two-ramp skeleton adds (1/2 - f)(Tr2 - Tr1)
//      with Tr2 read at the long-window Ceff2.  Slew falls out of the same
//      skeleton's 10/90 crossings.  The emitted waveform is that one- or
//      two-ramp PWL directly — no sampling, no crossing search.
//
// What Tier A skips relative to Tier B: the synthesized driver waveform, the
// simulated near/far-end measurement, pushout, and solver fallbacks — its
// delay/slew are pure table reads at the shielded load.
//
// The Eq 9 criteria double as the router's refusal signal: nets where
// transmission-line effects make a shielded-capacitance table lookup wrong
// are exactly the ones the screen hands to the denser tiers, so the two-ramp
// branch here only serves forced-Tier-A calibration runs.
//
// For coupled slots the tier adds the classical charge-sharing bound on the
// quiet-victim crosstalk peak, vdd * Cc / (Cc + Cg): the worst-case peak for
// an instantaneous aggressor edge, an upper bound on the simulated peak.
#ifndef RLCEFF_TIER_ANALYTICAL_H
#define RLCEFF_TIER_ANALYTICAL_H

#include <cstddef>

#include "core/charge.h"
#include "core/driver_model.h"
#include "moments/admittance.h"
#include "net/net.h"

namespace rlceff::net {
class CoupledGroup;
}

namespace rlceff::tier {

struct AnalyticalEstimate {
  // Closed-form model, shaped exactly like the Ceff flow's output (ceff1 /
  // ceff2 holding the windowed shielded capacitances) so Response consumers
  // see the same structure whichever tier served them.
  core::DriverOutputModel model;

  double delay = 0.0;       // modeled 50 % crossing (gate delay) [s]
  double slew_10_90 = 0.0;  // modeled 10-90 transition [s]

  double shielding = 1.0;   // Ceff1 / Ctotal in (0, 1]
};

// Tier A's load model of a net: the fast-walk moments
// (moments::fast_net_admittance), their Eq 3 rational fit, and its charge
// model.  The estimate below and lint's static screen
// (admit_analytical_static) both read shielding off this one model.  Throws
// when the fit has no usable charge model (an unstable pole, or no
// capacitance).
core::ChargeModel analytical_load(const net::Net& net);

// The closed-form estimate.  Uses net::Net::metrics_relaxed, so pure-RC nets
// (the tier's best customers) are fine; throws when the net is empty or
// analytical_load throws.  model.criteria is evaluated when the net has an L-C
// path and reports not-significant otherwise.
AnalyticalEstimate analytical_estimate(const charlib::CharacterizedDriver& driver,
                                       double input_slew, const net::Net& net);

// Charge-sharing upper bound on the quiet-victim crosstalk peak:
// vdd * Cc / (Cc + Cg) with Cc the coupling capacitance attached to the
// victim and Cg the victim net's own total capacitance.  Returns 0 for an
// uncoupled victim.
double noise_bound(const net::CoupledGroup& group, std::size_t victim, double vdd);

}  // namespace rlceff::tier

#endif  // RLCEFF_TIER_ANALYTICAL_H
