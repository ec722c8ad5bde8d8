#include "waveform/waveform.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rlceff::wave {

Waveform::Waveform(std::vector<double> times, std::vector<double> values)
    : t_(std::move(times)), v_(std::move(values)) {
  ensure(t_.size() == v_.size(), "Waveform: time/value size mismatch");
  for (std::size_t i = 1; i < t_.size(); ++i) {
    ensure(t_[i] > t_[i - 1], "Waveform: times must be strictly increasing");
  }
}

void Waveform::reserve(std::size_t samples) {
  t_.reserve(samples);
  v_.reserve(samples);
}

void Waveform::append(double time, double value) {
  ensure(t_.empty() || time > t_.back(), "Waveform: non-increasing append");
  t_.push_back(time);
  v_.push_back(value);
}

double Waveform::value_at(double time) const {
  ensure(!t_.empty(), "Waveform: empty");
  if (time <= t_.front()) return v_.front();
  if (time >= t_.back()) return v_.back();
  const auto it = std::upper_bound(t_.begin(), t_.end(), time);
  const std::size_t hi = static_cast<std::size_t>(it - t_.begin());
  const std::size_t lo = hi - 1;
  const double w = (time - t_[lo]) / (t_[hi] - t_[lo]);
  return v_[lo] + w * (v_[hi] - v_[lo]);
}

std::optional<double> Waveform::first_crossing(double level, bool rising) const {
  for (std::size_t i = 1; i < t_.size(); ++i) {
    const double a = v_[i - 1];
    const double b = v_[i];
    if (!crosses(a, b, level, rising)) continue;
    // Exact hit on a sample moving in the right direction.
    if (a == level) return t_[i - 1];
    const double w = (level - a) / (b - a);
    return t_[i - 1] + w * (t_[i] - t_[i - 1]);
  }
  return std::nullopt;
}

Waveform Waveform::shifted(double dt) const {
  std::vector<double> t = t_;
  for (double& x : t) x += dt;
  return Waveform(std::move(t), v_);
}

std::array<double, 3> rising_edge_levels(double v_from, double v_to) {
  const double swing = v_to - v_from;
  return {v_from + 0.1 * swing, v_from + 0.5 * swing, v_from + 0.9 * swing};
}

EdgeTiming measure_rising_edge(const Waveform& w, double v_from, double v_to) {
  ensure(v_to > v_from, "measure_rising_edge: v_to must exceed v_from");
  const std::array<double, 3> levels = rising_edge_levels(v_from, v_to);
  EdgeTiming e;
  const auto t10 = w.first_crossing(levels[0], true);
  const auto t50 = w.first_crossing(levels[1], true);
  const auto t90 = w.first_crossing(levels[2], true);
  ensure(t10.has_value() && t50.has_value() && t90.has_value(),
         "measure_rising_edge: waveform does not complete the transition");
  e.t10 = *t10;
  e.t50 = *t50;
  e.t90 = *t90;
  return e;
}

}  // namespace rlceff::wave
