#include "util/solve.h"

#include <algorithm>
#include <cmath>

namespace rlceff::util {

FixedPointResult fixed_point(const std::function<double(double)>& g, double x0,
                             const FixedPointOptions& opt) {
  FixedPointResult res;
  double x = std::clamp(x0, opt.lower, opt.upper);
  for (int iter = 1; iter <= opt.max_iter; ++iter) {
    if (opt.budget) opt.budget->check("fixed_point");
    const double gx = g(x);
    double x_new = x + opt.damping * (gx - x);
    x_new = std::clamp(x_new, opt.lower, opt.upper);
    res.iterations = iter;
    const double scale = std::max(std::abs(x_new), 1e-300);
    if (std::abs(x_new - x) / scale < opt.rel_tol) {
      res.x = x_new;
      res.converged = true;
      return res;
    }
    x = x_new;
  }
  res.x = x;
  res.converged = false;
  return res;
}

}  // namespace rlceff::util
