// The multi-fidelity estimation cascade (tiers), cheapest first.
//
// ROADMAP open item 1: a chip-scale timing run cannot afford the moments +
// Ceff fixed point — let alone a transient — for every net.  The cascade
// routes the common case to a closed-form screen and reserves the expensive
// estimators for the nets that need them:
//   * Tier A (analytical) — closed-form Elmore/single-pole shielding from
//     the driving-point moments plus NLDM table lookups; microsecond-free
//     (no fixed point, no waveform measurement).  See tier/analytical.h.
//   * Tier B (ceff)       — the paper's moments/AWE + Ceff one/two-ramp
//     model (core::model_driver_output): the existing production path.
//   * Tier C (reference)  — the full (coupled) transient reference
//     simulation (core::run_experiment / run_coupled_experiment).
// tier/router.h decides which tier serves a request; tier/envelope.h holds
// the offline-calibrated accuracy envelope each cheaper tier is held to.
//
// This header is dependency-free on purpose: api/request.h and lint/lint.h
// both embed the enums, and neither may drag the estimator code in.
#ifndef RLCEFF_TIER_TIER_H
#define RLCEFF_TIER_TIER_H

namespace rlceff::tier {

enum class Tier {
  analytical,  // Tier A: closed-form shielded-Ceff table estimate
  ceff,        // Tier B: moments + Ceff fixed point (the paper's flow)
  reference,   // Tier C: transient reference simulation
};

// How a Request wants the cascade used.  `reference` is the default and
// routes straight to Tier B or Tier C by the request's reference flag, with
// no Tier A and no escalation — requests behave exactly as they did before
// the tier subsystem existed (bitwise, enforced by the property harness).
enum class TierPolicy {
  reference,         // no routing; Request::reference decides as before
  balanced,          // cheapest tier whose calibrated envelope admits the
                     // request; escalates A -> B on the applicability screen
                     // and B -> C when the Ceff fixed point cannot agree
                     // with itself (convergence failure)
  fastest,           // Tier A when admitted, Tier B otherwise; never C
  force_analytical,  // pin Tier A (testing/calibration; skips admission)
  force_ceff,        // pin Tier B
  force_reference,   // pin Tier C (serves the full reference experiment)
};

// "analytical" / "ceff" / "reference".
const char* to_string(Tier tier);
// Single-letter tag used by bench metrics and CLI summaries: 'a'/'b'/'c'.
char tier_letter(Tier tier);
// "reference" / "balanced" / "fastest" / "force_analytical" / ...
const char* to_string(TierPolicy policy);
// Parses the CLI spellings: the full names above plus the shorthands
// "a"/"b"/"c" for the forced tiers.  Returns false on unknown input.
bool parse_tier_policy(const char* text, TierPolicy& out);

}  // namespace rlceff::tier

#endif  // RLCEFF_TIER_TIER_H
