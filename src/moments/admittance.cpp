#include "moments/admittance.h"

#include <utility>
#include <vector>

#include "net/net.h"
#include "util/error.h"

namespace rlceff::moments {

using util::Series;

namespace {

// Transforms a load admittance through a series impedance z = r + s*l:
// Y' = Y / (1 + z Y).
Series through_series_impedance(const Series& y, double r, double l) {
  const std::size_t n = y.size();
  const Series z({r, l}, n);  // r + l*s
  return y / (Series::constant(1.0, n) + z * y);
}

// The exact uniform-line expansion terminated by an arbitrary load
// admittance series (the cascade step for multi-section routes and net::Net
// branches).  `load` must have the same truncation order.
Series distributed_section_admittance(double r_total, double l_total, double c_total,
                                      const Series& load, std::size_t order) {
  ensure(order >= 2, "distributed_section_admittance: order too small");
  ensure(c_total > 0.0, "distributed_section_admittance: need line capacitance");
  ensure(load.size() == order, "distributed_section_admittance: load order mismatch");

  // u = x^2 = s * C * (R + s L); every factor below is analytic in s:
  //   cosh(x)      = sum u^k / (2k)!
  //   Y0 sinh(x)   = s C * sinhc(u),  sinhc(u) = sum u^k / (2k+1)!
  //   Z0 sinh(x)   = (R + s L) * sinhc(u)
  const Series u({0.0, c_total * r_total, c_total * l_total}, order);
  const Series cosh_x = Series::compose(line_series_coefficients.cosh, u);
  const Series sinhc_u = Series::compose(line_series_coefficients.sinhc, u);

  const Series s_c({0.0, c_total}, order);        // s * C
  const Series r_plus_sl({r_total, l_total}, order);
  const Series y0_sinh = s_c * sinhc_u;
  const Series z0_sinh = r_plus_sl * sinhc_u;

  return (y0_sinh + cosh_x * load) / (cosh_x + z0_sinh * load);
}

}  // namespace

Series ladder_admittance(double r_total, double l_total, double c_total, double c_far,
                         std::size_t segments, std::size_t order) {
  ensure(segments > 0, "ladder_admittance: need at least one segment");
  ensure(order >= 2, "ladder_admittance: order too small");
  const double n = static_cast<double>(segments);
  const double r_seg = r_total / n;
  const double l_seg = l_total / n;
  const double c_seg = c_total / n;

  // Far-end node: half segment cap plus the external load.
  Series y({0.0, c_far + 0.5 * c_seg}, order);  // (c_far + c/2N) * s
  for (std::size_t k = 0; k < segments; ++k) {
    y = through_series_impedance(y, r_seg, l_seg);
    const double shunt = (k + 1 == segments) ? 0.5 * c_seg : c_seg;
    y += Series({0.0, shunt}, order);
  }
  return y;
}

Series distributed_line_admittance(double r_total, double l_total, double c_total,
                                   double c_far, std::size_t order) {
  return distributed_section_admittance(r_total, l_total, c_total,
                                        Series({0.0, c_far}, order), order);
}

namespace {

// Looking into a branch: load plus children at the far end, then back through
// the route's sections.  Lumped sections are one step of the tree recursion;
// distributed sections cascade the exact uniform-line expansion.
Series branch_admittance(const net::Branch& branch, std::size_t order) {
  Series y({0.0, branch.c_load}, order);
  for (const net::Branch& child : branch.children) {
    y += branch_admittance(child, order);
  }
  for (auto it = branch.sections.rbegin(); it != branch.sections.rend(); ++it) {
    if (it->kind == net::SectionKind::lumped) {
      y += Series({0.0, it->capacitance}, order);
      y = through_series_impedance(y, it->resistance, it->inductance);
    } else {
      y = distributed_section_admittance(it->resistance, it->inductance,
                                         it->capacitance, y, order);
    }
  }
  return y;
}

}  // namespace

Series net_admittance(const net::Net& net, std::size_t order) {
  ensure(order >= 2, "net_admittance: order too small");
  return branch_admittance(net.root(), order);
}

namespace {

// Flattened tree for the fast moment sweeps: node 0 is the driving point
// (no edge), every other node hangs off parent[m] < m through a series
// (r[m], l[m]) with shunt c[m] at its far end.
struct FlatNet {
  std::vector<int> parent;
  std::vector<double> r, l, c;

  int add(int parent_node, double res, double ind, double cap) {
    const int node = static_cast<int>(parent.size());
    parent.push_back(parent_node);
    r.push_back(res);
    l.push_back(ind);
    c.push_back(cap);
    return node;
  }
};

// Steps of the ladder each distributed section becomes.
constexpr std::size_t kLadderSegments = 4;

void flatten_branch(const net::Branch& branch, int entry, FlatNet& flat) {
  int node = entry;
  for (const net::Section& s : branch.sections) {
    if (s.kind == net::SectionKind::lumped) {
      node = flat.add(node, s.resistance, s.inductance, s.capacitance);
    } else {
      // Half end caps (pi segments): keeps the lumped moments within
      // O(1/n^2) of the exact distributed integrals.
      const double n = static_cast<double>(kLadderSegments);
      flat.c[node] += 0.5 * s.capacitance / n;
      for (std::size_t k = 0; k < kLadderSegments; ++k) {
        const double shunt =
            (k + 1 == kLadderSegments ? 0.5 : 1.0) * s.capacitance / n;
        node = flat.add(node, s.resistance / n, s.inductance / n, shunt);
      }
    }
  }
  flat.c[node] += branch.c_load;
  for (const net::Branch& child : branch.children) flatten_branch(child, node, flat);
}

}  // namespace

util::Series fast_net_admittance(const net::Net& net) {
  // Scratch reused across calls: this runs once per Tier-A slot and fresh
  // vector allocations would dominate the sweeps themselves.
  thread_local FlatNet flat;
  thread_local std::vector<double> v_prev, v_cur, i_prev, i_cur;
  flat.parent.clear();
  flat.r.clear();
  flat.l.clear();
  flat.c.clear();
  flat.add(-1, 0.0, 0.0, 0.0);  // driving point
  flatten_branch(net.root(), 0, flat);
  const std::size_t n = flat.parent.size();

  // Voltage expansion v_i(s) = sum_k v^k_i s^k with v^0 = 1 everywhere and
  // v^k = 0 at the source; edge currents I^k_e = sum_{j below e} C_j
  // v^{k-1}_j; the drop through (r + s l) couples order k to the stored
  // order-(k-1) currents.  y_k = I^k at the driving point.
  constexpr std::size_t order = 5;
  v_prev.assign(n, 1.0);
  v_cur.assign(n, 0.0);
  i_prev.assign(n, 0.0);
  i_cur.assign(n, 0.0);
  double y[order + 1] = {};
  for (std::size_t k = 1; k <= order; ++k) {
    for (std::size_t m = 0; m < n; ++m) i_cur[m] = flat.c[m] * v_prev[m];
    for (std::size_t m = n; m-- > 1;) i_cur[flat.parent[m]] += i_cur[m];
    y[k] = i_cur[0];
    v_cur[0] = 0.0;
    for (std::size_t m = 1; m < n; ++m) {
      v_cur[m] = v_cur[flat.parent[m]] - flat.r[m] * i_cur[m] -
                 flat.l[m] * i_prev[m];
    }
    std::swap(v_prev, v_cur);
    std::swap(i_prev, i_cur);
  }
  return util::Series({0.0, y[1], y[2], y[3], y[4], y[5]}, order + 1);
}

}  // namespace rlceff::moments
