// Inductance-significance criteria (Eq 9 of the paper).
//
// Reconstructed from refs [4, 5]: transmission-line effects at the driving
// point matter when all four hold:
//   1. C_L << C*l        — the far-end load does not swamp the line,
//   2. R*l <= 2*Z0       — the line is not too lossy for a wave to survive
//                          the round trip,
//   3. Rs < Z0           — the driver launches an initial step above Vdd/2,
//   4. Tr1 < 2*tf        — the *driver output* initial ramp (from the Ceff1
//                          iteration) beats the round-trip flight time; the
//                          paper's new screen, replacing the input-slew test
//                          of ref [5] because inductive behaviour tracks the
//                          output transition, not the input one (ref [8]).
// When any test fails the driver output is RC-like and one effective
// capacitance suffices (Sec. 5).
#ifndef RLCEFF_CORE_CRITERIA_H
#define RLCEFF_CORE_CRITERIA_H

#include "net/net.h"

namespace rlceff::core {

// "C_L << C*l" threshold: the load must stay below this fraction of the
// line capacitance.
inline constexpr double load_cap_ratio_max = 0.2;

struct InductanceCriteria {
  bool load_small = false;        // C_L << C*l
  bool line_low_loss = false;     // R*l <= 2*Z0
  bool driver_fast = false;       // Rs < Z0
  bool ramp_beats_flight = false; // Tr1 < 2*tf

  bool significant() const {
    return load_small && line_low_loss && driver_fast && ramp_beats_flight;
  }
};

// Evaluates Eq 9 on a net's dominant path (net::Net::metrics): its Z0 and
// flight time, its series resistance for the loss screen, and its far-end
// load against every wire capacitance of the net for the load screen, with
// driver resistance rs and the first-ramp time tr1.  For a uniform line
// these are the line's own R, C, Z0 and tf.
InductanceCriteria evaluate_criteria(const net::NetMetrics& path, double rs,
                                     double tr1);

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_CRITERIA_H
