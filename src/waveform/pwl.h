// Piecewise-linear source descriptions.
//
// These are the model-side waveforms: the saturated input ramp fed to a
// driver, the one-ramp baseline output, and the paper's two-ramp output model
// (Eq 2), optionally with an explicit flat plateau (the three-piece
// alternative discussed in Sec. 4.2).  A Pwl is exact — no sampling — and can
// both drive the simulator (as a PWL voltage source) and be measured with the
// same EdgeTiming conventions as simulated waveforms.
#ifndef RLCEFF_WAVEFORM_PWL_H
#define RLCEFF_WAVEFORM_PWL_H

#include <vector>

#include "waveform/waveform.h"

namespace rlceff::wave {

class Pwl {
public:
  Pwl() = default;
  // Points must have strictly increasing times.  Value is held constant
  // before the first and after the last point.
  explicit Pwl(std::vector<std::pair<double, double>> points);

  const std::vector<std::pair<double, double>>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  double value_at(double time) const;
  double start_time() const;
  double end_time() const;
  double final_value() const;

  // Samples exactly at the breakpoints (plus flat extensions) — lossless.
  Waveform to_waveform(double t_end) const;

private:
  std::vector<std::pair<double, double>> points_;
};

// Saturated ramp from v0 at t0 to v1 at t0 + tr (tr > 0).
Pwl ramp(double t0, double tr, double v0, double v1);

// The paper's Eq 2 two-ramp rising waveform starting at (t0, 0):
//   first ramp slope Vdd/tr1 up to the breakpoint voltage f*Vdd,
//   second ramp slope Vdd/tr2 from f*Vdd up to Vdd.
Pwl two_ramp(double t0, double f, double tr1, double tr2, double vdd);

// Three-piece alternative: first ramp, flat plateau of duration t_plateau at
// f*Vdd, then the second ramp (used by the plateau-handling ablation).
Pwl three_piece(double t0, double f, double tr1, double t_plateau, double tr2,
                double vdd);

}  // namespace rlceff::wave

#endif  // RLCEFF_WAVEFORM_PWL_H
