#include "waveform/pwl.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/error.h"

namespace rlceff::wave {

namespace {

std::string fmt_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", t);
  return buf;
}

}  // namespace

Pwl::Pwl(std::vector<std::pair<double, double>> points) : points_(std::move(points)) {
  ensure(!points_.empty(), "Pwl: needs at least one point");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    // Name the offending index and the two timestamps: duplicate breakpoints
    // (a plateau collapsing to zero width, a replayed deck rounding two
    // times together) are the common construction failure and "must be
    // strictly increasing" alone does not say where.  Build the message only
    // on failure — this constructor is on the per-net hot path.
    if (!(points_[i].first > points_[i - 1].first)) {
      ensure(false, "Pwl: time[" + std::to_string(i) + "] = " +
                        fmt_time(points_[i].first) + " does not increase over time[" +
                        std::to_string(i - 1) + "] = " + fmt_time(points_[i - 1].first));
    }
  }
}

double Pwl::value_at(double time) const {
  ensure(!points_.empty(), "Pwl: empty");
  if (time <= points_.front().first) return points_.front().second;
  if (time >= points_.back().first) return points_.back().second;
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), time,
      [](double t, const std::pair<double, double>& p) { return t < p.first; });
  const auto hi = it;
  const auto lo = it - 1;
  const double w = (time - lo->first) / (hi->first - lo->first);
  return lo->second + w * (hi->second - lo->second);
}

double Pwl::start_time() const {
  ensure(!points_.empty(), "Pwl: empty");
  return points_.front().first;
}

double Pwl::end_time() const {
  ensure(!points_.empty(), "Pwl: empty");
  return points_.back().first;
}

double Pwl::final_value() const {
  ensure(!points_.empty(), "Pwl: empty");
  return points_.back().second;
}

Waveform Pwl::to_waveform(double t_end) const {
  ensure(!points_.empty(), "Pwl: empty");
  Waveform w;
  w.reserve(points_.size() + 2);  // the breakpoints plus lead-in and tail
  // Lead-in sample so crossings before the first breakpoint are well defined.
  if (points_.front().first > 0.0) w.append(0.0, points_.front().second);
  for (const auto& [t, v] : points_) {
    if (w.empty() || t > w.time(w.size() - 1)) w.append(t, v);
  }
  if (t_end > w.time(w.size() - 1)) w.append(t_end, final_value());
  return w;
}

Pwl ramp(double t0, double tr, double v0, double v1) {
  ensure(tr > 0.0, "ramp: transition time must be positive");
  return Pwl({{t0, v0}, {t0 + tr, v1}});
}

Pwl two_ramp(double t0, double f, double tr1, double tr2, double vdd) {
  ensure(f > 0.0 && f < 1.0, "two_ramp: breakpoint fraction must lie in (0, 1)");
  ensure(tr1 > 0.0 && tr2 > 0.0, "two_ramp: ramp times must be positive");
  const double t_break = t0 + f * tr1;
  const double t_final = t_break + (1.0 - f) * tr2;
  return Pwl({{t0, 0.0}, {t_break, f * vdd}, {t_final, vdd}});
}

Pwl three_piece(double t0, double f, double tr1, double t_plateau, double tr2,
                double vdd) {
  ensure(f > 0.0 && f < 1.0, "three_piece: breakpoint fraction must lie in (0, 1)");
  ensure(tr1 > 0.0 && tr2 > 0.0, "three_piece: ramp times must be positive");
  ensure(t_plateau >= 0.0, "three_piece: plateau duration must be non-negative");
  if (t_plateau == 0.0) return two_ramp(t0, f, tr1, tr2, vdd);
  const double t_break = t0 + f * tr1;
  const double t_resume = t_break + t_plateau;
  const double t_final = t_resume + (1.0 - f) * tr2;
  return Pwl({{t0, 0.0}, {t_break, f * vdd}, {t_resume, f * vdd}, {t_final, vdd}});
}

}  // namespace rlceff::wave
