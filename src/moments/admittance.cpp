#include "moments/admittance.h"

#include <cmath>

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

Series distributed_line_admittance(double r_total, double l_total, double c_total,
                                   double c_far, std::size_t order) {
  return distributed_section_admittance(r_total, l_total, c_total,
                                        Series({0.0, c_far}, order), order);
}

Series tree_admittance(const RlcBranch& root, std::size_t order) {
  ensure(order >= 2, "tree_admittance: order too small");
  Series y({0.0, root.capacitance}, order);
  for (const RlcBranch& child : root.children) y += tree_admittance(child, order);
  return through_series_impedance(y, root.resistance, root.inductance);
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

// The shield_pi walk needs the capacitance at or below every branch before
// prefix voltages can flow down, so pass 1 stores subtree totals in
// traversal order and pass 2 consumes them through a cursor.
double collect_subtree_caps(const net::Branch& branch, std::vector<double>& caps) {
  const std::size_t slot = caps.size();
  caps.push_back(0.0);
  double total = branch.c_load;
  for (const net::Section& s : branch.sections) total += s.capacitance;
  for (const net::Branch& child : branch.children) {
    total += collect_subtree_caps(child, caps);
  }
  caps[slot] = total;
  return total;
}

// Exact first three RC moments of the driving-point admittance, as one tree
// walk.  With V = 1 at the root and node voltage expansions
// v_i = 1 + s*a_i + s^2*b_i + ..., the admittance is
//
//   Y(s) = s*y1 + s^2*y2 + s^3*y3 + ...,   y1 = sum C_i,
//   y2 = sum_i C_i a_i = -sum_e R_e Cdown(e)^2,
//   y3 = sum_i C_i b_i = -sum_e R_e Cdown(e) Adown(e),
//
// where Adown(e) = sum of C_j a_j over the capacitance below edge e.  The
// walk computes prefix a forward (root to leaves; needs only Cdown, from
// pass 1), then folds Adown backward; distributed sections use the closed
// polynomial integrals of a(x), Cdown(x) over the section length.
struct PiWalker {
  const std::vector<double>& caps;
  std::size_t cursor = 0;
  double y2_neg = 0.0;  // -y2 = sum R Cdown^2  (>= 0)
  double y3 = 0.0;      // -sum R Cdown Adown   (>= 0)

  // Enters `branch` with root-path prefix a0; returns sum C_j a_j over the
  // branch's subtree.
  double walk(const net::Branch& branch, double a0) {
    const double subtree = caps[cursor++];

    // Forward sweep: prefix a at each section entry.  A lumped section's C
    // hangs at the far end of its R; a distributed section's exact far-end
    // prefix drop is R*(E + C/2) for downstream load E.
    const std::size_t n = branch.sections.size();
    std::vector<double> a_entry(n);
    double below = subtree;
    double a = a0;
    for (std::size_t k = 0; k < n; ++k) {
      const net::Section& s = branch.sections[k];
      a_entry[k] = a;
      if (s.kind == net::SectionKind::lumped) {
        a -= s.resistance * below;
        below -= s.capacitance;
      } else {
        below -= s.capacitance;
        a -= s.resistance * (below + 0.5 * s.capacitance);
      }
    }

    // Children and the leaf load sit at the far end of the section chain.
    double a_sum = branch.c_load * a;
    for (const net::Branch& child : branch.children) a_sum += walk(child, a);

    // Backward sweep: fold Adown up through the sections.
    for (std::size_t k = n; k-- > 0;) {
      const net::Section& s = branch.sections[k];
      const double r = s.resistance;
      const double c = s.capacitance;
      if (s.kind == net::SectionKind::lumped) {
        const double cdown = below + c;
        const double a_node = a_entry[k] - r * cdown;
        a_sum += c * a_node;
        y2_neg += r * cdown * cdown;
        y3 -= r * cdown * a_sum;
        below = cdown;
      } else {
        // a(x) = a0 - P*x + Q*x^2 along the section (x in [0,1]), with
        // P = R*(E + C), Q = R*C/2; S(x) = int_x^1 C*a dx' has polynomial
        // coefficients s0..s3, and Cdown(x) = d0 + d1*x.
        const double e_load = below;
        const double p = r * (e_load + c);
        const double q = 0.5 * r * c;
        const double s0 = a_entry[k] - 0.5 * p + q / 3.0;
        const double s1 = -a_entry[k];
        const double s2 = 0.5 * p;
        const double s3 = -q / 3.0;
        const double d0 = e_load + c;
        const double d1 = -c;
        const double int_cd = e_load + 0.5 * c;  // int_0^1 Cdown dx
        const double int_cd_s =
            c * (d0 * (s0 + s1 / 2.0 + s2 / 3.0 + s3 / 4.0) +
                 d1 * (s0 / 2.0 + s1 / 3.0 + s2 / 4.0 + s3 / 5.0));
        y2_neg += r * (e_load * e_load + e_load * c + c * c / 3.0);
        y3 -= r * (a_sum * int_cd + int_cd_s);
        a_sum += c * s0;  // the section's own capacitance, at prefix a(x)
        below = e_load + c;
      }
    }
    return a_sum;
  }
};

}  // namespace

PiLoad shield_pi(const net::Net& net) {
  std::vector<double> caps;
  const double c_total = collect_subtree_caps(net.root(), caps);

  PiWalker walker{caps};
  (void)walker.walk(net.root(), 0.0);

  PiLoad pi;
  pi.c_total = c_total;
  pi.tau = c_total > 0.0 ? walker.y2_neg / c_total : 0.0;
  if (walker.y2_neg <= 0.0 || walker.y3 <= 0.0) {
    // Resistance-free (or numerically degenerate) tree: no shielding.
    pi.c_near = c_total;
    return pi;
  }
  const double c_far = walker.y2_neg * walker.y2_neg / walker.y3;
  if (c_far >= c_total) {
    // Moment pattern outside the pi template; collapse to the single-pole
    // model, which is always realizable.
    pi.c_near = 0.0;
    pi.c_far = c_total;
    pi.r = pi.tau > 0.0 && c_total > 0.0 ? pi.tau / c_total : 0.0;
    return pi;
  }
  pi.c_far = c_far;
  pi.c_near = c_total - c_far;
  pi.r = walker.y3 * walker.y3 /
         (walker.y2_neg * walker.y2_neg * walker.y2_neg);
  return pi;
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

void flatten_branch(const net::Branch& branch, int entry, FlatNet& flat,
                    std::size_t ladder_segments) {
  int node = entry;
  for (const net::Section& s : branch.sections) {
    if (s.kind == net::SectionKind::lumped) {
      node = flat.add(node, s.resistance, s.inductance, s.capacitance);
    } else {
      // Half end caps (pi segments): keeps the lumped moments within
      // O(1/n^2) of the exact distributed integrals.
      const double n = static_cast<double>(ladder_segments);
      flat.c[node] += 0.5 * s.capacitance / n;
      for (std::size_t k = 0; k < ladder_segments; ++k) {
        const double shunt =
            (k + 1 == ladder_segments ? 0.5 : 1.0) * s.capacitance / n;
        node = flat.add(node, s.resistance / n, s.inductance / n, shunt);
      }
    }
  }
  flat.c[node] += branch.c_load;
  for (const net::Branch& child : branch.children) {
    flatten_branch(child, node, flat, ladder_segments);
  }
}

}  // namespace

util::Series fast_net_admittance(const net::Net& net, std::size_t ladder_segments) {
  ensure(ladder_segments > 0, "fast_net_admittance: need at least one segment");
  // Scratch reused across calls: this runs once per Tier-A slot and fresh
  // vector allocations would dominate the sweeps themselves.
  thread_local FlatNet flat;
  thread_local std::vector<double> v_prev, v_cur, i_prev, i_cur;
  flat.parent.clear();
  flat.r.clear();
  flat.l.clear();
  flat.c.clear();
  flat.add(-1, 0.0, 0.0, 0.0);  // driving point
  flatten_branch(net.root(), 0, flat, ladder_segments);
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

namespace {

struct PathAccumulator {
  double r = 0.0;
  double l = 0.0;
  double c = 0.0;
};

void walk_paths(const RlcBranch& branch, PathAccumulator path, TreePathMetrics& out) {
  path.r += branch.resistance;
  path.l += branch.inductance;
  path.c += branch.capacitance;
  out.total_capacitance += branch.capacitance;
  if (branch.children.empty()) {
    if (path.l <= 0.0 || path.c <= 0.0) return;
    const double tf = std::sqrt(path.l * path.c);
    if (tf > out.time_of_flight) {
      out.time_of_flight = tf;
      out.z0 = std::sqrt(path.l / path.c);
      out.path_resistance = path.r;
    }
    return;
  }
  for (const RlcBranch& child : branch.children) walk_paths(child, path, out);
}

}  // namespace

TreePathMetrics tree_metrics(const RlcBranch& root) {
  TreePathMetrics out;
  walk_paths(root, {}, out);
  ensure(out.total_capacitance > 0.0, "tree_metrics: tree has no capacitance");
  ensure(out.time_of_flight > 0.0,
         "tree_metrics: no root-to-leaf path with both L and C");
  return out;
}

}  // namespace rlceff::moments
