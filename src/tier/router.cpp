#include "tier/router.h"

#include "moments/admittance.h"
#include "net/coupled.h"

namespace rlceff::tier {

namespace {

constexpr double kMinShielding = 0.05;        // Ceff/Ctotal floor for Tier A
constexpr double kMaxCouplingFraction = 0.4;  // Cc/(Cc+Cg) ceiling, coupled Tier A

}  // namespace

Admission admit_analytical(const AnalyticalEstimate& estimate) {
  if (estimate.model.criteria.significant()) {
    return {false, "inductance_significant"};
  }
  if (!estimate.model.ceff1.converged ||
      (estimate.model.kind == core::ModelKind::two_ramp &&
       !estimate.model.ceff2.converged)) {
    return {false, "fixed_point_stalled"};
  }
  if (estimate.shielding < kMinShielding) {
    return {false, "deep_shielding"};
  }
  return {};
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
  if (metrics.time_of_flight > 0.0 && driver_resistance > 0.0 &&
      input_slew > 0.0) {
    const core::InductanceCriteria criteria = core::evaluate_criteria(
        metrics.z0, metrics.time_of_flight, metrics.path_resistance,
        metrics.wire_capacitance, metrics.path_load, driver_resistance,
        input_slew);
    if (criteria.significant()) return {false, "inductance_significant"};
  }
  if (input_slew > 0.0) {
    const moments::PiLoad pi = moments::shield_pi(net);
    const double tau = pi.r * pi.c_far;
    const double shielded =
        tau > 0.0 ? pi.c_near + pi.c_far * shield_factor(input_slew / tau)
                  : pi.c_total;
    const double shielding = pi.c_total > 0.0 ? shielded / pi.c_total : 1.0;
    if (shielding < kMinShielding) return {false, "deep_shielding"};
  }
  return {};
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
