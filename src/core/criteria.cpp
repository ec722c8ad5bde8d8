#include "core/criteria.h"

#include "util/error.h"

namespace rlceff::core {

InductanceCriteria evaluate_criteria(const tech::WireParasitics& wire, double c_load,
                                     double rs, double tr1) {
  return evaluate_criteria(wire.z0(), wire.time_of_flight(), wire.resistance,
                           wire.capacitance, c_load, rs, tr1);
}

InductanceCriteria evaluate_criteria(double z0, double tf, double line_resistance,
                                     double line_capacitance, double c_load, double rs,
                                     double tr1) {
  ensure(rs > 0.0 && tr1 > 0.0, "evaluate_criteria: rs and tr1 must be positive");
  ensure(c_load >= 0.0, "evaluate_criteria: negative load capacitance");
  ensure(z0 > 0.0 && tf > 0.0, "evaluate_criteria: need z0 and tf");

  InductanceCriteria c;
  c.load_small = c_load < load_cap_ratio_max * line_capacitance;
  c.line_low_loss = line_resistance <= 2.0 * z0;
  c.driver_fast = rs < z0;
  c.ramp_beats_flight = tr1 < 2.0 * tf;
  return c;
}

}  // namespace rlceff::core
