// Shared helpers for the rlceff test suite.
#ifndef RLCEFF_TESTS_TEST_HELPERS_H
#define RLCEFF_TESTS_TEST_HELPERS_H

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "net/net.h"

namespace rlceff::testing {

// EXPECT that two values agree within a relative tolerance (absolute floor
// for values near zero).
inline void expect_rel_near(double expected, double actual, double rel_tol,
                            double abs_floor = 1e-300) {
  const double scale = std::max({std::abs(expected), std::abs(actual), abs_floor});
  EXPECT_NEAR(expected, actual, rel_tol * scale)
      << "expected " << expected << " vs actual " << actual;
}

// Deterministic RNG for property-style tests.
inline std::mt19937& rng() {
  static std::mt19937 gen(20030603);  // DAC'03 seed
  return gen;
}

inline double uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(rng());
}

// One branch of an RLC tree as a net::Branch: a lumped section with series
// (r, l) from the parent and shunt c at its far end, then `children`.  An
// all-zero branch is a pure junction and carries no section.
inline net::Branch lumped_branch(double r, double l, double c,
                                 std::vector<net::Branch> children = {}) {
  net::Branch branch;
  if (r != 0.0 || l != 0.0 || c != 0.0) {
    branch.sections.push_back({r, l, c, net::SectionKind::lumped});
  }
  branch.children = std::move(children);
  return branch;
}

}  // namespace rlceff::testing

#endif  // RLCEFF_TESTS_TEST_HELPERS_H
