// Scalar fixed-point iteration: the damped loop behind the Ceff <->
// cell-table iterations of Sections 4.1/4.2.
//
// The loop runs at most max_iter iterations (default from util/budget.h's
// iter_defaults, the library's one vocabulary for loop ceilings).  When
// `budget` is set, each iteration calls ExecTracker::check() (deadline /
// cancellation).
#ifndef RLCEFF_UTIL_SOLVE_H
#define RLCEFF_UTIL_SOLVE_H

#include <functional>

#include "util/budget.h"

namespace rlceff::util {

struct FixedPointOptions {
  double rel_tol = 1e-9;     // convergence on |x_new - x| / max(|x_new|, floor)
  double damping = 1.0;      // x <- x + damping * (g(x) - x)
  int max_iter = iter_defaults::fixed_point;
  double lower = -1e300;     // clamp applied after each update
  double upper = 1e300;
  ExecTracker* budget = nullptr;  // optional cooperative budget (see header)
};

struct FixedPointResult {
  double x = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Damped fixed-point iteration x <- g(x) starting from x0, clamped to
// [lower, upper].  Returns the last iterate with a convergence flag rather
// than throwing: Ceff loops treat slow convergence as "use the last value".
FixedPointResult fixed_point(const std::function<double(double)>& g, double x0,
                             const FixedPointOptions& opt = {});

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_SOLVE_H
