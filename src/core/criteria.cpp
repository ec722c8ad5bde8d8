#include "core/criteria.h"

#include "util/error.h"

namespace rlceff::core {

InductanceCriteria evaluate_criteria(const net::NetMetrics& path, double rs,
                                     double tr1) {
  ensure(rs > 0.0 && tr1 > 0.0, "evaluate_criteria: rs and tr1 must be positive");
  ensure(path.path_load >= 0.0, "evaluate_criteria: negative load capacitance");
  ensure(path.z0 > 0.0 && path.time_of_flight > 0.0,
         "evaluate_criteria: need z0 and tf");

  InductanceCriteria c;
  c.load_small = path.path_load < load_cap_ratio_max * path.wire_capacitance;
  c.line_low_loss = path.path_resistance <= 2.0 * path.z0;
  c.driver_fast = rs < path.z0;
  c.ramp_beats_flight = tr1 < 2.0 * path.time_of_flight;
  return c;
}

}  // namespace rlceff::core
