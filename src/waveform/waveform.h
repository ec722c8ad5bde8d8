// Sampled voltage waveforms and timing measurements.
//
// A Waveform is a piecewise-linear interpolation of (time, value) samples
// with strictly increasing time.  All timing metrics used in the paper —
// 50 % delay, 10-90 % transition time, overshoot — are measured here with one
// shared convention so model and "SPICE" numbers are always comparable.
#ifndef RLCEFF_WAVEFORM_WAVEFORM_H
#define RLCEFF_WAVEFORM_WAVEFORM_H

#include <array>
#include <optional>
#include <span>
#include <vector>

namespace rlceff::wave {

// The sample-pair test behind Waveform::first_crossing: true when the
// segment from value `a` to value `b` holds a crossing of `level` in the
// given direction (rising: from below to at-or-above), or starts exactly on
// the level and moves the right way.
inline bool crosses(double a, double b, double level, bool rising = true) {
  const bool crossed = rising ? (a < level && b >= level) : (a > level && b <= level);
  return crossed || (a == level && (rising ? b > a : b < a));
}

class Waveform {
public:
  Waveform() = default;
  Waveform(std::vector<double> times, std::vector<double> values);

  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  std::span<const double> times() const { return t_; }
  std::span<const double> values() const { return v_; }
  double time(std::size_t i) const { return t_[i]; }
  double value(std::size_t i) const { return v_[i]; }

  // Pre-sizes the sample storage (fixed-step simulators know their step
  // count up front, keeping append() allocation-free inside the time loop).
  void reserve(std::size_t samples);

  // Appends a sample; time must exceed the last sample's time.
  void append(double time, double value);

  // Linear interpolation; clamps outside the sampled range.
  double value_at(double time) const;

  // First time the waveform crosses `level` in the given direction
  // (rising: from below to at-or-above).  nullopt when it never does.
  std::optional<double> first_crossing(double level, bool rising = true) const;

  // Last time the waveform is at `level` moving in the given direction.
  std::optional<double> last_crossing(double level, bool rising = true) const;

  double max_value() const;
  double final_value() const { return v_.empty() ? 0.0 : v_.back(); }

  // New waveform shifted in time by dt.
  Waveform shifted(double dt) const;

private:
  std::vector<double> t_;
  std::vector<double> v_;
};

// Timing of one rising (or falling) edge between levels v_from and v_to.
struct EdgeTiming {
  double t10 = 0.0;   // first crossing of v_from + 0.10 * (v_to - v_from)
  double t50 = 0.0;   // first crossing of the midpoint
  double t90 = 0.0;   // first crossing of v_from + 0.90 * (v_to - v_from)

  // 10-90 transition expressed as a full-swing ramp time, the convention the
  // paper's Tr values use: a saturated ramp with this duration has the same
  // 10-90 interval as the measured edge.
  double ramp_transition() const { return (t90 - t10) / 0.8; }
  double transition_10_90() const { return t90 - t10; }
};

// The 10, 50 and 90 % levels of a rising edge from v_from to v_to, in that
// order: the levels measure_rising_edge crosses.
std::array<double, 3> rising_edge_levels(double v_from, double v_to);

// Measures a rising edge from v_from to v_to; throws when the waveform never
// reaches the 90 % level.
EdgeTiming measure_rising_edge(const Waveform& w, double v_from, double v_to);

// Measures a falling edge from v_from down to v_to.
EdgeTiming measure_falling_edge(const Waveform& w, double v_from, double v_to);

// Peak overshoot above v_to (0 when none).
double overshoot(const Waveform& w, double v_to);

}  // namespace rlceff::wave

#endif  // RLCEFF_WAVEFORM_WAVEFORM_H
