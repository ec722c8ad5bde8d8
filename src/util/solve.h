// Scalar fixed-point solver: the loop behind the Ceff <-> cell-table
// iterations of Sections 4.1/4.2.
//
// A fixed point of P(x) = clamp(g(x), lower, upper) is a root of
// h(x) = P(x) - x, and h(lower) >= 0 >= h(upper): the clamp range brackets
// the root before g is evaluated.  The first step from the clamped start is
// P(x); later steps are secants through the last two iterates, kept
// strictly inside the bracket of the latest points with h > 0 and h < 0 (a
// step that leaves it takes P(x) when that is inside, else bisects), and a
// bracket that has not halved in 3 steps is bisected.  So a slowly
// contracting map (|g'| near 1) converges in a few steps, and a flat or
// non-monotone g cannot throw the iterate out of the bracket.
//
// The stop rule is |P(x) - x| < rel_tol * |P(x)|.  g is evaluated at most
// max_iter times (default from util/budget.h's iter_defaults), each after
// one ExecTracker::check() when `budget` is set.  The result is the last
// point g was evaluated at, so a caller can keep what that evaluation
// computed; max_iter = 0 returns the clamped start, unconverged.
//
// fixed_point is a template over its callable, so g inlines into each
// caller's loop; any callable works, std::function included.
#ifndef RLCEFF_UTIL_SOLVE_H
#define RLCEFF_UTIL_SOLVE_H

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/budget.h"

namespace rlceff::util {

struct FixedPointOptions {
  double rel_tol = 1e-9;  // stop on |P(x) - x| < rel_tol * |P(x)|
  int max_iter = iter_defaults::fixed_point;  // evaluations of g
  // P(x) = clamp(g(x), lower, upper).  An infinite end (the default) is
  // never bisected toward: until a sign change replaces it, the solver takes
  // only secant and plain steps.
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
  ExecTracker* budget = nullptr;  // optional cooperative budget (see header)
};

struct FixedPointResult {
  double x = 0.0;  // the last point g was evaluated at (the clamped start if none)
  int iterations = 0;  // evaluations of g
  bool converged = false;
};

// Safeguarded secant on P(x) - x from x0 (see header).  Returns the last
// evaluated point with a convergence flag rather than throwing: the Ceff
// loops leave it to their caller to judge a point that did not converge.
template <class G>
FixedPointResult fixed_point(const G& g, double x0, const FixedPointOptions& opt = {}) {
  // The bracket [lo, hi] with h(lo) >= 0 >= h(hi).  An end that g has not
  // been evaluated at may itself be the root, so an iterate may land on it.
  double lo = opt.lower;
  double hi = opt.upper;
  bool lo_evaluated = false;
  bool hi_evaluated = false;
  const auto inside = [&](double x) {
    return (x > lo || (x == lo && !lo_evaluated)) &&
           (x < hi || (x == hi && !hi_evaluated));
  };
  double width_mark = hi - lo;  // the bracket's width when it last halved
  int stale = 0;                // steps since then

  FixedPointResult res;
  double x = std::clamp(x0, opt.lower, opt.upper);
  double x_prev = x;
  double h_prev = 0.0;
  res.x = x;
  for (int iter = 1; iter <= opt.max_iter; ++iter) {
    if (opt.budget) opt.budget->check("fixed_point");
    const double px = std::clamp(g(x), opt.lower, opt.upper);
    const double h = px - x;
    res.x = x;
    res.iterations = iter;
    if (std::abs(h) < opt.rel_tol * std::max(std::abs(px), 1e-300)) {
      res.converged = true;
      return res;
    }
    if (h > 0.0) {
      lo = x;
      lo_evaluated = true;
    } else {
      hi = x;
      hi_evaluated = true;
    }
    if (hi - lo <= 0.5 * width_mark) {
      width_mark = hi - lo;
      stale = 0;
    } else {
      ++stale;
    }

    double next = 0.5 * (lo + hi);
    if (stale < 3) {
      const double step =
          iter == 1 || h == h_prev ? px : x - h * (x - x_prev) / (h - h_prev);
      if (inside(step)) {
        next = step;
      } else if (inside(px)) {
        next = px;
      }
    }
    x_prev = x;
    h_prev = h;
    x = next;
  }
  return res;
}

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_SOLVE_H
