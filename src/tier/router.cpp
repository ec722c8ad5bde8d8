#include "tier/router.h"

#include "core/ceff.h"
#include "net/coupled.h"
#include "util/error.h"

namespace rlceff::tier {

namespace {

constexpr double kMinShielding = 0.05;        // Ceff/Ctotal floor for Tier A
constexpr double kMaxCouplingFraction = 0.4;  // Cc/(Cc+Cg) ceiling, coupled Tier A

// The single-net predicates of the Tier A screen, in their one order, for
// the served screen and the static one alike.
Admission screen(bool inductance_significant, bool converged, double shielding) {
  if (inductance_significant) return {false, "inductance_significant"};
  if (!converged) return {false, "fixed_point_stalled"};
  if (shielding < kMinShielding) return {false, "deep_shielding"};
  return {};
}

}  // namespace

Admission admit_analytical(const AnalyticalEstimate& estimate) {
  const core::DriverOutputModel& m = estimate.model;
  return screen(m.criteria.significant(),
                m.ceff1.converged &&
                    (m.kind != core::ModelKind::two_ramp || m.ceff2.converged),
                estimate.shielding);
}

Admission admit_group_analytical(const net::CoupledGroup& group, std::size_t victim) {
  // Mutual inductance is deliberately NOT a refusal: the Miller-decoupled
  // victim that Tier A models is the same one Tier B models, and both drop
  // the mutual terms — escalating A -> B buys no accuracy there (measured on
  // the random fleet: identical worst-case error), only the transient
  // reference captures the inductive return path and balanced never escalates
  // B -> C for it either.  The calibrated coupled envelope covers the shared
  // approximation.
  const double cc = group.coupling_capacitance_at(victim);
  if (cc > 0.0) {
    const double cg = group.net_at(victim).total_capacitance();
    if (cc / (cc + cg) > kMaxCouplingFraction) {
      return {false, "coupling_heavy"};
    }
  }
  return {};
}

Admission admit_analytical_static(const net::Net& net, double driver_resistance,
                                  double input_slew) {
  const net::NetMetrics metrics = net.metrics_relaxed();
  const bool significant =
      metrics.time_of_flight > 0.0 && driver_resistance > 0.0 && input_slew > 0.0 &&
      core::evaluate_criteria(metrics, driver_resistance, input_slew).significant();
  // Shielding over the whole transition, as Tier A's one-ramp solve reads
  // it, with the input slew for the ramp time.  A fit the served screen
  // could not use is refused as the Engine refuses it.
  double shielding = 1.0;
  if (!significant && input_slew > 0.0) {
    try {
      shielding = core::ceff_single(analytical_load(net), input_slew) /
                  metrics.total_capacitance();
    } catch (const Error&) {
      return {false, "estimate_failed"};
    }
  }
  return screen(significant, true, shielding);
}

Tier route(TierPolicy policy, const Admission& admission, bool request_reference) {
  switch (policy) {
    case TierPolicy::reference:
      return request_reference ? Tier::reference : Tier::ceff;
    case TierPolicy::balanced:
    case TierPolicy::fastest:
      return admission.ok ? Tier::analytical : Tier::ceff;
    case TierPolicy::force_analytical: return Tier::analytical;
    case TierPolicy::force_ceff: return Tier::ceff;
    case TierPolicy::force_reference: return Tier::reference;
  }
  return Tier::ceff;
}

}  // namespace rlceff::tier
