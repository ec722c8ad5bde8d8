#include "moments/awe.h"

#include <cmath>

#include "util/error.h"
#include "util/linalg.h"

namespace rlceff::moments {

using util::Complex;
using util::Series;

Series ladder_transfer(double r_total, double l_total, double c_total, double c_far,
                       std::size_t segments, std::size_t order) {
  ensure(segments > 0, "ladder_transfer: need at least one segment");
  const double n = static_cast<double>(segments);
  const double r_seg = r_total / n;
  const double l_seg = l_total / n;
  const double c_seg = c_total / n;

  // Propagate (V, I) from the far end (V = 1) toward the source.
  Series v = Series::constant(1.0, order);
  Series i({0.0, c_far + 0.5 * c_seg}, order);  // far-end shunt current
  const Series z({r_seg, l_seg}, order);
  for (std::size_t k = 0; k < segments; ++k) {
    v += z * i;
    const double shunt = (k + 1 == segments) ? 0.5 * c_seg : c_seg;
    i += Series({0.0, shunt}, order) * v;
  }
  return Series::constant(1.0, order) / v;
}

Series distributed_transfer(double r_total, double l_total, double c_total,
                            double c_far, std::size_t order) {
  // V_near = cosh(x) V_far + Z0 sinh(x) I_far with I_far = s c_far V_far, so
  // H = 1 / (cosh(x) + (R + sL) sinhc(u) * s c_far), u = s C (R + sL).
  const Series u({0.0, c_total * r_total, c_total * l_total}, order);
  const Series cosh_x = Series::compose(line_series_coefficients.cosh, u);
  const Series sinhc_u = Series::compose(line_series_coefficients.sinhc, u);
  const Series z0_sinh = Series({r_total, l_total}, order) * sinhc_u;
  const Series y_load({0.0, c_far}, order);
  return Series::constant(1.0, order) / (cosh_x + z0_sinh * y_load);
}

AweModel AweModel::make(const util::Series& transfer, std::size_t max_poles) {
  ensure(max_poles >= 1 && max_poles <= 3, "AweModel: supports 1 to 3 poles");
  ensure(transfer.size() >= 2 * max_poles, "AweModel: not enough moments");

  for (std::size_t q = max_poles; q >= 1; --q) {
    // Denominator from the Hankel system:
    //   sum_{j=1..q} h[k-j] * b_j = -h[k],  k = q .. 2q-1   (h[-1] := 0)
    util::DenseMatrix a(q, q);
    std::vector<double> rhs(q, 0.0);
    auto h = [&](int idx) { return idx < 0 ? 0.0 : transfer[static_cast<std::size_t>(idx)]; };
    for (std::size_t row = 0; row < q; ++row) {
      const int k = static_cast<int>(q + row);
      for (std::size_t j = 1; j <= q; ++j) a(row, j - 1) = h(k - static_cast<int>(j));
      rhs[row] = -h(k);
    }

    std::vector<double> b;
    try {
      b = util::solve_dense(a, rhs);
    } catch (const SingularMatrixError&) {
      continue;  // try a lower order
    }

    // Poles: roots of Q(s) = 1 + b1 s + ... + bq s^q.
    std::vector<Complex> poles;
    if (q == 1) {
      poles = {Complex(-1.0 / b[0], 0.0)};
    } else if (q == 2) {
      const auto r = util::quadratic_roots(b[1], b[0], 1.0);
      poles = {r[0], r[1]};
    } else {
      const auto r = util::cubic_roots(b[2], b[1], b[0], 1.0);
      poles = {r[0], r[1], r[2]};
    }

    bool stable = true;
    for (const Complex& p : poles) {
      if (p.real() >= 0.0) stable = false;
    }
    if (!stable) continue;

    // Numerator coefficients p_k = sum_{j=0..k} b_j h[k-j] (b_0 = 1).
    std::vector<double> num(q, 0.0);
    for (std::size_t k = 0; k < q; ++k) {
      num[k] = h(static_cast<int>(k));
      for (std::size_t j = 1; j <= k; ++j) num[k] += b[j - 1] * h(static_cast<int>(k - j));
    }

    // Residues k_i = P(p_i) / Q'(p_i).
    AweModel model;
    model.poles_ = poles;
    model.residues_.resize(poles.size());
    for (std::size_t i = 0; i < poles.size(); ++i) {
      const Complex p = poles[i];
      Complex pnum = 0.0;
      for (std::size_t k = num.size(); k-- > 0;) pnum = pnum * p + num[k];
      Complex dq = 0.0;
      for (std::size_t j = q; j >= 1; --j) {
        dq = dq * p + static_cast<double>(j) * b[j - 1];
      }
      model.residues_[i] = pnum / dq;
    }
    model.dc_gain_ = transfer[0];
    return model;
  }
  throw ConvergenceError("AweModel: no stable reduced model found");
}

double AweModel::unit_ramp_response(double t) const {
  if (t <= 0.0) return 0.0;
  // L^-1[H(s)/s^2] = dc_gain * t + sum_i k_i (e^{p_i t} - 1) / p_i^2.
  Complex acc = 0.0;
  for (std::size_t i = 0; i < poles_.size(); ++i) {
    const Complex p = poles_[i];
    acc += residues_[i] * (std::exp(p * t) - 1.0) / (p * p);
  }
  return dc_gain_ * t + acc.real();
}

wave::Waveform AweModel::response(const wave::Pwl& input, double t_end, double dt) const {
  ensure(t_end > 0.0 && dt > 0.0, "AweModel: bad response range");
  // A continuous PWL is a superposition of slope changes:
  //   v_in(t) = v0 + sum_j ds_j * max(0, t - t_j).
  const auto& pts = input.points();
  ensure(!pts.empty(), "AweModel: empty input");
  std::vector<std::pair<double, double>> kinks;  // (time, slope change)
  double prev_slope = 0.0;
  for (std::size_t k = 0; k + 1 < pts.size(); ++k) {
    const double slope = (pts[k + 1].second - pts[k].second) / (pts[k + 1].first - pts[k].first);
    kinks.emplace_back(pts[k].first, slope - prev_slope);
    prev_slope = slope;
  }
  if (!pts.empty()) kinks.emplace_back(pts.back().first, -prev_slope);
  const double v0 = pts.front().second;

  wave::Waveform out;
  const auto steps = static_cast<std::size_t>(std::ceil(t_end / dt));
  for (std::size_t s = 0; s <= steps; ++s) {
    const double t = std::min(static_cast<double>(s) * dt, t_end);
    double v = v0 * dc_gain_;
    for (const auto& [tk, ds] : kinks) v += ds * unit_ramp_response(t - tk);
    out.append(t, v);
    if (t >= t_end) break;
  }
  return out;
}

}  // namespace rlceff::moments
