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

#include "tech/wire.h"

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

// Evaluates Eq 9 for a uniform line with far-end load c_load, driver
// resistance rs, and the converged first-ramp time tr1.
InductanceCriteria evaluate_criteria(const tech::WireParasitics& wire, double c_load,
                                     double rs, double tr1);

// Explicit form for non-uniform loads (RLC trees): the caller supplies the
// characteristic impedance and flight time of the dominant path plus the
// line totals the loss/load screens compare against.
InductanceCriteria evaluate_criteria(double z0, double tf, double line_resistance,
                                     double line_capacitance, double c_load, double rs,
                                     double tr1);

}  // namespace rlceff::core

#endif  // RLCEFF_CORE_CRITERIA_H
