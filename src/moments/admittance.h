// Driving-point admittance moments of RLC loads.
//
// The k-th moment of Y(s) is the k-th coefficient of its Taylor expansion
// about s = 0.  For loads with no DC path to ground, Y(s) = m1 s + m2 s^2 +
// ..., and m1 equals the total capacitance.  Two load descriptions are
// supported:
//   * discretized ladders mirroring ckt::append_rlc_ladder exactly,
//   * any net::Net: its distributed sections take the exact (Telegrapher's)
//     uniform-line expansion of their ABCD parameters, its lumped sections
//     the RLC-tree recursion (an RLC tree is a net::Branch tree of lumped
//     sections).  The ladder moments converge to the distributed ones as
//     the segment count grows (validated in tests).
#ifndef RLCEFF_MOMENTS_ADMITTANCE_H
#define RLCEFF_MOMENTS_ADMITTANCE_H

#include <array>
#include <cstddef>

#include "util/series.h"

namespace rlceff::net {
class Net;
}

namespace rlceff::moments {

inline constexpr std::size_t default_order = 8;

// Taylor coefficients of the uniform-line expansion in u = x^2, one per term
// a util::Series holds: cosh(x) = sum u^k / (2k)! and
// sinhc(u) = sinh(x)/x = sum u^k / (2k+1)!.  One constant table, shared by
// the admittance and transfer cascades of every section.
struct LineSeriesCoefficients {
  std::array<double, util::Series::capacity> cosh{};
  std::array<double, util::Series::capacity> sinhc{};
};
inline constexpr LineSeriesCoefficients line_series_coefficients = [] {
  LineSeriesCoefficients out;
  double fact = 1.0;  // (2k)! running value
  for (std::size_t k = 0; k < util::Series::capacity; ++k) {
    if (k > 0) fact *= static_cast<double>(2 * k - 1) * static_cast<double>(2 * k);
    out.cosh[k] = 1.0 / fact;
    out.sinhc[k] = 1.0 / (fact * static_cast<double>(2 * k + 1));
  }
  return out;
}();

// Admittance series of an N-segment pi-section ladder (same topology as
// ckt::append_rlc_ladder) with far-end load c_far.
util::Series ladder_admittance(double r_total, double l_total, double c_total,
                               double c_far, std::size_t segments,
                               std::size_t order = default_order);

// Admittance series of the exact distributed uniform RLC line with far-end
// load c_far:  Y_in = (Y0 sinh(x) + cosh(x) Y_L) / (cosh(x) + Z0 sinh(x) Y_L)
// expanded via u = x^2 = s * C * (R + s L).
util::Series distributed_line_admittance(double r_total, double l_total,
                                         double c_total, double c_far,
                                         std::size_t order = default_order);

// Driving-point admittance series of a net::Net: a lumped section is one
// step of the RLC-tree recursion (Y' = (Y + sC) / (1 + (R + sL)(Y + sC))),
// distributed sections cascade the exact uniform-line expansion, branch
// points sum their children.
util::Series net_admittance(const net::Net& net, std::size_t order = default_order);

// First five driving-point admittance moments (a Series with coefficients
// s^0..s^5, s^0 == 0) via a flattened lumped-ladder walk: the tree is
// flattened once into parent/r/l/c arrays (each distributed section becomes
// a four-step ladder with half end caps, exact to O(1/n^2) in the moments),
// then each moment order is two linear array sweeps — no Series arithmetic,
// no recursion, no per-section allocation.  This is Tier A's input to the
// Eq 3 rational fit (tier::analytical_load), for the served estimate and
// lint's static screen alike: ~20x cheaper than net_admittance and within
// ~2 % of it on the moments that matter.
util::Series fast_net_admittance(const net::Net& net);

}  // namespace rlceff::moments

#endif  // RLCEFF_MOMENTS_ADMITTANCE_H
