// Driving-point admittance moments of RLC loads.
//
// The k-th moment of Y(s) is the k-th coefficient of its Taylor expansion
// about s = 0.  For loads with no DC path to ground, Y(s) = m1 s + m2 s^2 +
// ..., and m1 equals the total capacitance.  Three load descriptions are
// supported:
//   * discretized ladders mirroring ckt::append_rlc_ladder exactly,
//   * general RLC trees (for nets with branches),
//   * the exact distributed (Telegrapher's) uniform line via the analytic
//     expansion of its ABCD parameters — the ladder moments converge to
//     these as the segment count grows (validated in tests).
#ifndef RLCEFF_MOMENTS_ADMITTANCE_H
#define RLCEFF_MOMENTS_ADMITTANCE_H

#include <array>
#include <cstddef>
#include <vector>

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

// Same expansion terminated by an arbitrary load admittance series (the
// cascade step for multi-section routes and net::Net branches).  `load` must
// have the same truncation order.
util::Series distributed_section_admittance(double r_total, double l_total,
                                            double c_total, const util::Series& load,
                                            std::size_t order = default_order);

// Driving-point admittance series of a net::Net: lumped sections run the
// RLC-tree recursion below, distributed sections cascade the exact
// uniform-line expansion, branch points sum their children.
util::Series net_admittance(const net::Net& net, std::size_t order = default_order);

// O'Brien/Savarino-style pi reduction of the driving-point admittance: the
// exact first three RC moments y1, y2, y3 (inductance first enters the
// fourth) mapped onto c_near + r -> c_far, the smallest load template that
// separates the unshielded near capacitance from the resistively shielded
// tail.  Computed by two closed-form O(sections) tree walks (distributed
// sections use exact polynomial integrals) — no series cascade — so the
// Tier-A screen can afford it per slot.  Degenerate moment patterns
// (resistance-free nets, or y2^2/y3 >= y1) collapse to a lone capacitor or
// the single-pole model; c_near + c_far == y1 == Ctotal always holds.
struct PiLoad {
  double c_total = 0.0;  // y1 [F]
  double c_near = 0.0;   // unshielded capacitance at the driving point [F]
  double c_far = 0.0;    // capacitance behind the shielding resistance [F]
  double r = 0.0;        // shielding resistance [ohm]
  double tau = 0.0;      // single-pole constant -y2/y1 [s]
};
PiLoad shield_pi(const net::Net& net);

// First five driving-point admittance moments (a Series with coefficients
// s^0..s^5, s^0 == 0) via a flattened lumped-ladder walk: the tree is
// flattened once into parent/r/l/c arrays (each distributed section becomes
// a `ladder_segments`-step ladder with half end caps, exact to O(1/n^2) in
// the moments), then each moment order is two linear array sweeps — no
// Series arithmetic, no recursion, no per-section allocation.  This is the
// Tier-A screen's input to the Eq 3 rational fit: ~20x cheaper than
// net_admittance and within ~2 % of it on the moments that matter.
util::Series fast_net_admittance(const net::Net& net, std::size_t ladder_segments = 4);

// An RLC tree branch: series (r, l) from the parent, shunt c at the far end
// of the branch, then children hanging off that node.
struct RlcBranch {
  double resistance = 0.0;
  double inductance = 0.0;
  double capacitance = 0.0;
  std::vector<RlcBranch> children;
};

// Admittance series looking into `root` (its series impedance included).
util::Series tree_admittance(const RlcBranch& root, std::size_t order = default_order);

// Transmission-line view of a tree used by the two-ramp flow: the dominant
// root-to-leaf path (the one with the largest flight time) supplies the
// characteristic impedance, time of flight, and loss resistance that Eq 1,
// Eq 8 and Eq 9 need.  For a chain describing a uniform line these reduce to
// the uniform-line values.
struct TreePathMetrics {
  double z0 = 0.0;                // sqrt(L_path / C_path) of the dominant path
  double time_of_flight = 0.0;    // max over paths of sqrt(L_path * C_path)
  double path_resistance = 0.0;   // series R along the dominant path
  double total_capacitance = 0.0; // every capacitor in the tree
};

TreePathMetrics tree_metrics(const RlcBranch& root);

}  // namespace rlceff::moments

#endif  // RLCEFF_MOMENTS_ADMITTANCE_H
